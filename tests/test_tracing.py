"""The benchmark's tracing wrappers install on the package as it is.

``bench/tracing.py`` patches names in several package modules.  This
test installs it, so a rename of any patched name fails here, also where
the benchmark's own smoke runs are not part of the job.
"""

from pathlib import Path

import numpy as np
import pytest

from nimatrix import analysis, coeffmatrix, engine, oracles, samplers
from nimatrix import search as searchmod
from nimatrix.samplers import SamplerSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def _patched_names():
    names = {}
    for module in (analysis, coeffmatrix, engine, oracles, samplers, searchmod):
        for attr, value in vars(module).items():
            if callable(value) and not attr.startswith("__"):
                names[(module.__name__, attr)] = value
    return names


def test_install_then_uninstall_restores_every_name(tracing):
    before = _patched_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _patched_names()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("nimatrix.search", "run_matrix") in changed
        assert ("nimatrix.search", "energy_distance") in changed
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert _patched_names() == before


def test_traced_search_counts_its_layers(tracing, ring_gmm):
    base = coeffmatrix.trace_sampler(SamplerSpec(kind="ddim"), n_evals=5)
    ref = ring_gmm.means[np.arange(64) % 8]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        pred = oracles.make_predictor(ring_gmm, base.schedule())
        res = searchmod.optimize_matrix(searchmod.SearchSpace(base=base), pred,
                                        ref, budget=20, seed=1, n_samples=32)
    finally:
        tracer.op = None
        tracer.uninstall()
    metrics = tracer.op_metrics(0)
    assert metrics["search.evals"] == res.evaluations == 20
    assert metrics["search.objective.calls"] == len(res.objective_trace)
    # only the starting matrix runs through run_matrix; candidates replay
    assert metrics["engine.calls"] == 1
    assert metrics["engine.rows"] == base.n_rows
    assert base.n_evals <= metrics["oracles.calls"] < 20 * base.n_evals
    assert metrics["search.busy_s"] > metrics["search.objective_s"] > 0
