"""Workloads of the nimatrix benchmark: inputs, operations and output checks.

Every workload drives one user-visible CLI path in-process through
``nimatrix.cli.main``.  Its inputs are generated from the workload seed
and reach the program only as files and argv.  Each workload stresses a
different layer, so a change to one layer shows on one workload and is
predicted to leave another unchanged:

- ``sample-dataset``: ``nimatrix sample`` on a traced ddpm-18 matrix
  with a 10,000 x 64 dataset oracle.  The dataset kernel (squared
  distances, log-softmax, weighted mean) takes nearly all the time, so
  oracle changes show here and executor changes do not.
- ``sample-long``: ``nimatrix trace`` of ddpm with 300 evaluations, then
  ``nimatrix sample`` of that file with an 8-component mixture oracle in
  d = 64 and a batch of 16.  Row combination over the dense signal and
  noise blocks dominates ``run_matrix``; trace, save and load take the
  rest.  The dataset oracle is bypassed.
- ``search-ring``: ``nimatrix search`` on the 8-mode ring mixture in
  2-D with its 2048-point default reference and 512 samples per
  evaluation.  The energy-distance objective dominates; the executor is
  the next layer.
- ``degrade``: ``nimatrix degrade`` on the same dataset file.  The same
  oracle kernel returns full weight vectors for fresh forward draws
  instead of posterior means.

The sizes are smaller than a one-shot study would use so that a run of
the benchmark holds enough operations for a tail percentile with ten
operations beyond it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from nimatrix import coeffmatrix, oracles
from nimatrix.affine import CONCRETE, RunContext
from nimatrix.engine import RunConfig, run_matrix
from nimatrix.samplers import SamplerSpec, default_grid, run_native
from nimatrix.search import energy_distance

#: Per-workload operation sizes; ``small`` is the warm-up and self-test size.
SIZES = {
    "sample-dataset": {"full": {"n": 128}, "small": {"n": 4}},
    "sample-long": {"full": {"steps": 300, "n": 16},
                    "small": {"steps": 20, "n": 4}},
    "search-ring": {"full": {"budget": 40}, "small": {"budget": 6}},
    "degrade": {"full": {"trials": 500}, "small": {"trials": 20}},
}
WORKLOADS = tuple(SIZES)

DATASET_SHAPE = (10_000, 64)
DEGRADE_TIMES = (100.0, 300.0, 500.0, 700.0, 900.0)
SAMPLE_REL_TOL = 1e-9       # executor contract: matrix run == native run
RESCORE_REL_TOL = 1e-12     # best objective re-scored from the written file
WILSON_REL_TOL = 1e-12
SEARCH_SAMPLES = 512        # optimize_matrix default, used by the CLI
REFERENCE_POINTS = 2048     # size of the CLI's default search reference


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


@dataclass
class Outcome:
    """What one operation printed; its files are in the workload's directory."""

    stdout: str


def sha256_of(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _csv_rows(text: str, header: str) -> list:
    lines = text.strip().splitlines()
    _require(bool(lines) and lines[0] == header,
             f"expected CSV header {header!r}")
    return [line.split(",") for line in lines[1:]]


def wilson_halfwidth(successes: int, trials: int, z: float = 1.959964) -> float:
    """Wilson score half-width, written independently of the package."""
    p = successes / trials
    zz = z * z
    return (z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials))
            / (1 + zz / trials))


class Workload:
    """One workload: its input files, its operation and its check.

    Operation ``k`` uses the sampler/search/degrade seed ``op_seed(k)``,
    so the same workload seed gives the same sequence of outputs on any
    commit, and their digests can be compared.
    """

    work_unit: str

    def __init__(self, name: str, seed: int, workdir: str,
                 size: str = "full"):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.params = SIZES[name][size]
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op_seed(self, k: int) -> int:
        return 1000 * self.seed + k

    # Overridden per workload -------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def commands(self, k: int) -> list:
        raise NotImplementedError

    def work(self) -> int:
        """Work units one operation completes."""
        raise NotImplementedError

    def check(self, k: int, out: Outcome, full: bool) -> str:
        """Raise CheckFailed on a bad output; return the output digest.

        ``full`` adds the checks that cost as much as the operation.
        """
        raise NotImplementedError

    # Shared input writers ------------------------------------------------
    def _write_dataset(self) -> None:
        atoms = self.rng.standard_normal(DATASET_SHAPE)
        oracles.save_dataset(oracles.Dataset(atoms=atoms), self.path("data.bin"))


class _SampleWorkload(Workload):
    work_unit = "samples"
    sampler = "ddpm"
    dim: int

    def work(self) -> int:
        return self.params["n"]

    def _matrix_file(self) -> str:
        raise NotImplementedError

    def _predictor(self, schedule):
        raise NotImplementedError

    def check(self, k, out, full):
        out_path = self.path("out.bin")
        samples = oracles.load_dataset(out_path).atoms
        n, d = self.params["n"], self.dim
        _require(samples.shape == (n, d),
                 f"sample shape {samples.shape}, expected {(n, d)}")
        _require(bool(np.all(np.isfinite(samples))), "non-finite sample")
        if full:
            m = coeffmatrix.load(self._matrix_file())
            s = m.schedule()
            spec = SamplerSpec(kind=self.sampler)
            ctx = RunContext(mode=CONCRETE, predictor=self._predictor(s),
                             seed=self.op_seed(k), shape=(n, d))
            want = run_native(spec, s, default_grid(spec, s, m.n_evals), ctx)
            rel = np.abs(samples - want).max() / np.abs(want).max()
            _require(rel <= SAMPLE_REL_TOL,
                     f"matrix run differs from native run by {rel:.3e}")
        return sha256_of(_read(out_path))


class SampleDataset(_SampleWorkload):
    dim = DATASET_SHAPE[1]

    def setup(self):
        self._write_dataset()
        m = coeffmatrix.trace_sampler(SamplerSpec(kind=self.sampler), n_evals=18)
        coeffmatrix.save(m, self.path("ddpm-18.json"))

    def _matrix_file(self):
        return self.path("ddpm-18.json")

    def _predictor(self, schedule):
        return oracles.make_predictor(
            oracles.load_dataset(self.path("data.bin")), schedule)

    def commands(self, k):
        return [["sample", "--matrix", self._matrix_file(),
                 "--predictor", "dataset:" + self.path("data.bin"),
                 "--n", str(self.params["n"]), "--seed", str(self.op_seed(k)),
                 "--out", self.path("out.bin")]]


class SampleLong(_SampleWorkload):
    components = 8
    dim = 64

    def setup(self):
        k = self.components
        w = self.rng.uniform(0.5, 1.5, k)
        mix = {"weights": (w / w.sum()).tolist(),
               "means": (2.0 * self.rng.standard_normal((k, self.dim))).tolist(),
               "variances": self.rng.uniform(0.2, 1.0, k).tolist()}
        with open(self.path("mixture.json"), "w", encoding="utf-8") as fh:
            json.dump(mix, fh)

    def _matrix_file(self):
        return self.path("long.json")

    def _predictor(self, schedule):
        return oracles.make_predictor(
            oracles.load_mixture(self.path("mixture.json")), schedule)

    def commands(self, k):
        return [["trace", "--sampler", self.sampler,
                 "--steps", str(self.params["steps"]),
                 "--out", self._matrix_file()],
                ["sample", "--matrix", self._matrix_file(),
                 "--predictor", "gmm:" + self.path("mixture.json"),
                 "--n", str(self.params["n"]), "--seed", str(self.op_seed(k)),
                 "--out", self.path("out.bin")]]


class SearchRing(Workload):
    work_unit = "evaluations"
    modes = 8

    def setup(self):
        k = self.modes
        radius = 3.0 + self.rng.uniform()
        phase = self.rng.uniform(0.0, 2.0 * np.pi)
        ang = phase + 2.0 * np.pi * np.arange(k) / k
        mix = {"weights": [1.0 / k] * k,
               "means": np.c_[radius * np.cos(ang), radius * np.sin(ang)].tolist(),
               "variances": self.rng.uniform(0.03, 0.06, k).tolist()}
        with open(self.path("ring.json"), "w", encoding="utf-8") as fh:
            json.dump(mix, fh)

    def work(self):
        return self.params["budget"]

    def commands(self, k):
        return [["search", "--steps", "5",
                 "--budget", str(self.params["budget"]),
                 "--predictor", "gmm:" + self.path("ring.json"),
                 "--seed", str(self.op_seed(k)), "--out", self.path("best.json")]]

    def _default_reference(self, mix, seed: int) -> np.ndarray:
        """The reference set ``nimatrix search`` draws when given none."""
        rng = np.random.default_rng(seed)
        comp = rng.choice(len(mix.weights), size=REFERENCE_POINTS, p=mix.weights)
        return (mix.means[comp] + np.sqrt(mix.variances[comp])[:, None]
                * rng.standard_normal((REFERENCE_POINTS, mix.d)))

    def check(self, k, out, full):
        rows = _csv_rows(out.stdout, "evaluation,best_objective")
        trace = [float(v) for _, v in rows]
        # Skipped candidates are charged against the budget but leave no
        # trace entry, and the search may stop early once its step shrinks.
        budget = self.params["budget"]
        _require(1 <= len(trace) <= budget,
                 f"objective trace has {len(trace)} evaluations, "
                 f"want 1 to {budget}")
        _require(all(b <= a for a, b in zip(trace, trace[1:])),
                 "objective trace is not non-increasing")
        _require(trace[-1] <= trace[0], "best objective exceeds the first")
        best_path = self.path("best.json")
        best = coeffmatrix.load(best_path)
        mix = oracles.load_mixture(self.path("ring.json"))
        pred = oracles.make_predictor(mix, best.schedule())
        seed = self.op_seed(k)
        res = run_matrix(RunConfig(matrix=best, predictor=pred,
                                   n=SEARCH_SAMPLES, seed=seed))
        score = energy_distance(res.samples, self._default_reference(mix, seed))
        _require(abs(score - trace[-1]) <= RESCORE_REL_TOL * abs(trace[-1]),
                 f"re-scored best {score!r} != reported {trace[-1]!r}")
        return sha256_of(_read(best_path), out.stdout.encode())


class Degrade(Workload):
    work_unit = "trials"

    def setup(self):
        self._write_dataset()

    def work(self):
        return self.params["trials"] * len(DEGRADE_TIMES)

    def commands(self, k):
        return [["degrade", "--data", self.path("data.bin"), "--family", "vp",
                 "--times", ",".join(str(int(t)) for t in DEGRADE_TIMES),
                 "--trials", str(self.params["trials"]),
                 "--seed", str(self.op_seed(k))]]

    def check(self, k, out, full):
        header = ("family,t,rate_degraded,rate_to_source,trials,"
                  "ci_degraded,ci_to_source")
        rows = _csv_rows(out.stdout, header)
        trials = self.params["trials"]
        _require(len(rows) == len(DEGRADE_TIMES),
                 f"{len(rows)} rows, want {len(DEGRADE_TIMES)}")
        for row, t in zip(rows, DEGRADE_TIMES):
            _require(len(row) == 7, f"malformed row {row}")
            family, tt, deg, src, n, ci_deg, ci_src = row
            deg, src, ci_deg, ci_src = map(float, (deg, src, ci_deg, ci_src))
            _require(family == "vp-discrete" and float(tt) == t and int(n) == trials,
                     f"row {row} does not match the request")
            _require(0.0 <= src <= deg <= 1.0,
                     f"rates out of order or range at t={t}: {deg}, {src}")
            for rate, ci in ((deg, ci_deg), (src, ci_src)):
                want = wilson_halfwidth(round(rate * trials), trials)
                _require(abs(ci - want) <= WILSON_REL_TOL * max(want, 1e-300),
                         f"Wilson half-width {ci!r} != {want!r} at t={t}")
        return sha256_of(out.stdout.encode())


_CLASSES = {"sample-dataset": SampleDataset, "sample-long": SampleLong,
            "search-ring": SearchRing, "degrade": Degrade}


def make(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    return _CLASSES[name](name, seed, workdir, size)
