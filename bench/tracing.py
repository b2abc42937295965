"""Spans and counters around the calls into each nimatrix layer.

The wrappers are installed from the benchmark only, by rebinding the
names through which one layer calls the next: the module attributes the
``cli`` module reaches its layers through, the names ``search``,
``analysis``, ``coeffmatrix`` and ``samplers`` imported from other
modules, and the predictor object that ``make_predictor`` returns.  No
file of the package changes.  ``uninstall`` puts every original back, so
traced and untraced operations can alternate within one process.

A span records its name, start, end, parent span and operation id.
Spans stay in memory until the benchmark ends.  Counts are added at the
same boundaries, per operation.  Nothing is recorded outside an
operation, so the benchmark's own output checks are never traced.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import numpy as np

from nimatrix import analysis, coeffmatrix, engine, oracles, samplers
from nimatrix import search as searchmod

#: Per-layer metrics of a traced run, with units, in report order.
METRICS = (
    ("oracles.calls", "count"), ("oracles.states", "count"),
    ("oracles.busy_s", "s"), ("oracles.flops_computed", "flop"),
    ("oracles.bytes_computed", "byte"), ("oracles.load_s", "s"),
    ("engine.calls", "count"), ("engine.rows", "count"),
    ("engine.madds_computed", "count"), ("engine.busy_s", "s"),
    ("engine.self_s", "s"),
    ("coeffmatrix.trace_s", "s"), ("samplers.run_native_s", "s"),
    ("affine.lin_combine.calls", "count"), ("coeffmatrix.save_s", "s"),
    ("coeffmatrix.load_s", "s"), ("coeffmatrix.file_bytes", "byte"),
    ("search.busy_s", "s"), ("search.evals", "count"),
    ("search.accepted", "count"), ("search.accept_ratio", "ratio"),
    ("search.failed", "count"), ("search.objective.calls", "count"),
    ("search.objective_s", "s"), ("search.executor_s", "s"),
    ("search.self_s", "s"),
    ("analysis.busy_s", "s"), ("analysis.trials", "count"),
    ("analysis.weights.calls", "count"), ("analysis.weights_s", "s"),
    ("analysis.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory spans and per-operation counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack = []
        self._patches = []

    # ----- recording -----------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        if self.op is not None:
            self.counts[self.op][name] += amount

    # ----- installing the wrappers --------------------------------------
    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_patch(self, module, attr, name, after=None):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None and self.op is not None:
                after(result, *args, **kwargs)
            return result

        self._patch(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracing wrappers already installed")
        # Names the cli module reaches its layers through.
        self._span_patch(coeffmatrix, "trace_sampler", "coeffmatrix.trace")
        self._span_patch(coeffmatrix, "save", "coeffmatrix.save",
                         after=lambda _r, _m, path: self.count(
                             "coeffmatrix.file_bytes", os.path.getsize(path)))
        self._span_patch(coeffmatrix, "load", "coeffmatrix.load")
        for attr in ("load_dataset", "load_dataset_csv", "load_mixture"):
            self._span_patch(oracles, attr, "oracles.load")
        make_predictor = oracles.make_predictor
        self._patch(oracles, "make_predictor", lambda *a, **kw:
                    TracedPredictor(make_predictor(*a, **kw), self))
        self._span_patch(engine, "run_matrix", "engine.run_matrix",
                         after=self._count_run)
        self._span_patch(searchmod, "optimize_matrix", "search.optimize",
                         after=self._count_search)
        self._span_patch(analysis, "degradation_table", "analysis.table",
                         after=self._count_table)
        # Cross-module names one layer calls the next through.
        self._span_patch(searchmod, "run_matrix", "engine.run_matrix",
                         after=self._count_run)
        self._span_patch(searchmod, "energy_distance", "search.objective")
        self._span_patch(analysis, "posterior_weights", "analysis.weights")
        self._span_patch(coeffmatrix, "run_native", "samplers.run_native")
        lin_combine = samplers.lin_combine

        def counted_lin_combine(terms):
            self.count("affine.lin_combine.calls")
            return lin_combine(terms)

        self._patch(samplers, "lin_combine", counted_lin_combine)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ----- counters taken from layer results ----------------------------
    def _count_run(self, result, cfg):
        m = cfg.matrix
        n, d = result.samples.shape
        self.count("engine.calls")
        self.count("engine.rows", m.n_rows)
        self.count("engine.madds_computed",
                   (np.count_nonzero(m.signal) + np.count_nonzero(m.noise)) * n * d)

    def _count_search(self, result, *args, **kwargs):
        trace = result.objective_trace
        self.count("search.evals", result.evaluations)
        self.count("search.accepted", sum(b < a for a, b in zip(trace, trace[1:])))
        self.count("search.failed", result.evaluations - len(trace))

    def _count_table(self, report, *args, **kwargs):
        self.count("analysis.trials", sum(r.trials for r in report.rows))

    # ----- per-operation metrics -----------------------------------------
    def _op_times(self, op):
        """Busy time, self time and call count per span name in one op."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == op]
        child = defaultdict(float)
        for i in ids:
            _, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i in ids:
            name, start, end, parent, _ = self.spans[i]
            if name == "engine.run_matrix" and parent is not None \
                    and self.spans[parent][0] == "search.optimize":
                busy["search.executor"] += end - start
            busy[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return busy, own, calls

    def op_metrics(self, op) -> dict:
        """Every per-layer metric of one traced operation."""
        busy, own, calls = self._op_times(op)
        c = self.counts[op]
        evals = c["search.evals"]
        return {
            "oracles.calls": c["oracles.calls"],
            "oracles.states": c["oracles.states"],
            "oracles.busy_s": busy["oracles.predict"],
            "oracles.flops_computed": c["oracles.flops_computed"],
            "oracles.bytes_computed": c["oracles.bytes_computed"],
            "oracles.load_s": busy["oracles.load"],
            "engine.calls": c["engine.calls"],
            "engine.rows": c["engine.rows"],
            "engine.madds_computed": c["engine.madds_computed"],
            "engine.busy_s": busy["engine.run_matrix"],
            "engine.self_s": own["engine.run_matrix"],
            "coeffmatrix.trace_s": busy["coeffmatrix.trace"],
            "samplers.run_native_s": busy["samplers.run_native"],
            "affine.lin_combine.calls": c["affine.lin_combine.calls"],
            "coeffmatrix.save_s": busy["coeffmatrix.save"],
            "coeffmatrix.load_s": busy["coeffmatrix.load"],
            "coeffmatrix.file_bytes": c["coeffmatrix.file_bytes"],
            "search.busy_s": busy["search.optimize"],
            "search.evals": evals,
            "search.accepted": c["search.accepted"],
            "search.accept_ratio": c["search.accepted"] / evals if evals else 0.0,
            "search.failed": c["search.failed"],
            "search.objective.calls": calls["search.objective"],
            "search.objective_s": busy["search.objective"],
            "search.executor_s": busy["search.executor"],
            "search.self_s": own["search.optimize"],
            "analysis.busy_s": busy["analysis.table"],
            "analysis.trials": c["analysis.trials"],
            "analysis.weights.calls": calls["analysis.weights"],
            "analysis.weights_s": busy["analysis.weights"],
            "analysis.self_s": own["analysis.table"],
            "cli.self_s": own["cli.main"],
        }

    def split(self, ops) -> dict:
        """Median busy and self time of each span name over the operations."""
        per_op = [self._op_times(op) for op in ops]
        names = sorted({s[0] for s in self.spans})
        return {name: {"busy_s": statistics.median(b[name] for b, _, _ in per_op),
                       "self_s": statistics.median(o[name] for _, o, _ in per_op)}
                for name in names}


class TracedPredictor:
    """Wraps a predictor: one span per call, plus work computed from sizes.

    The flop and byte counts are computed from array sizes for the
    kernel as written, not measured, and ignore cache behaviour:

    - dataset (b states, n atoms, dimension d): two GEMMs of 2bnd flops
      each plus about 6bn for distances and the softmax; the atoms are
      read twice, the states read and the means written once, and the
      b x n weight matrix written and read once.
    - mixture (k components): about 8bkd flops; the means read once, the
      states read and written once, the b x k x d component means
      written and read once.
    """

    def __init__(self, predictor, tracer: Tracer):
        self._predictor = predictor
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._predictor, name)

    def __call__(self, t, x):
        tr = self._tracer
        y = tr.call("oracles.predict", self._predictor, t, x)
        if tr.op is not None:
            b = np.shape(x)[0] if np.ndim(x) == 2 else 1
            src = self._predictor.source
            if isinstance(src, oracles.Dataset):
                n, d = src.n, src.d
                flops, words = 4 * b * n * d + 6 * b * n, 2 * n * d + 2 * b * d + 2 * b * n
            else:
                k, d = src.means.shape
                flops, words = 8 * b * k * d, k * d + 2 * b * d + 2 * b * k * d
            tr.count("oracles.calls")
            tr.count("oracles.states", b)
            tr.count("oracles.flops_computed", flops)
            tr.count("oracles.bytes_computed", 8 * words)
        return y
