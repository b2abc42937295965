"""Black-box improvement of coefficient matrices.

The objective is the energy distance between samples produced by a
candidate matrix and a reference sample set from the target
distribution — a feature-free two-sample statistic that is zero iff the
distributions agree.  Its all-pairs means fill their distance matrices
in blocks of ``_ROWS`` rows that the caller and the package's one worker
thread take in turn (``_mean_dists`` through ``_pool.run_blocks``, the
block loop the dataset oracle also uses).  Unlike the oracle's GEMMs,
``cdist`` does not run on BLAS threads, so the split is always taken;
every entry is computed on its own, so each mean is bitwise the
single-threaded ``cdist(x, y).mean()`` whatever the block boundaries.

The search is a banded coordinate descent: only entries within ``band``
columns left of the diagonal move, a candidate rescales only its edited
row back to that row's marginal signal target (every other row stays
bitwise equal to the current matrix), evaluations share common random
numbers, and only improvements are accepted, so the objective trace is
monotone.  Because a candidate edits one row ``i`` and the noise draws are
shared, its predictor inputs and outputs before row ``i`` are bitwise the
current matrix's: a candidate copies those rows from the current matrix's
state and output buffers and replays from row ``i`` on, so an edit to the
terminal row calls the predictor no times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from ._pool import run_blocks
from .coeffmatrix import (CoefficientMatrix, normalize_rows, rescale_row,
                          row_sums)
from .engine import RunConfig, _draw, _play, run_matrix
from .errors import NimatrixError, ParameterError, ValidationError, check_int


MAX_PAIRS = 4_000_000

# cdist releases the GIL, so the worker thread can fill distance rows
# while the caller does.  A 64-row block against the 2000-point reference
# is about half a millisecond: small enough that the caller waits at most
# that long for the worker's last block, large enough that the per-call
# overhead of cdist (about 10 us) stays small.
_ROWS = 64


def _cap(max_pairs: int) -> int:
    return int(np.sqrt(check_int("max_pairs", max_pairs, 1)))


def _mean_dists(*pairs) -> list:
    """Mean Euclidean distance over all pairs of rows of each ``(x, y)``.

    Each pair's distances fill one ``(n_x, n_y)`` buffer in blocks of
    ``_ROWS`` rows, which the caller and the package's worker thread take
    in turn (``_pool.run_blocks``).  Each entry is computed on its own,
    so each mean is bitwise equal to ``cdist(x, y).mean()``.
    """
    outs = [np.empty((x.shape[0], y.shape[0])) for x, y in pairs]

    def fill(block):
        x, y, out = block
        cdist(x, y, out=out)

    run_blocks(fill, [(x[s:s + _ROWS], y, out[s:s + _ROWS])
                      for (x, y), out in zip(pairs, outs)
                      for s in range(0, x.shape[0], _ROWS)])
    return [out.sum() / out.size for out in outs]


def _points(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.size == 0:
        raise ParameterError("sample sets must be non-empty")
    if not np.isfinite(x).all():
        raise ValidationError("sample sets must be finite")
    return x


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference set with its side of the energy distance precomputed.

    ``subsample`` is the set ``energy_distance`` scores against and
    ``self_term`` is its E||B - B'||; both depend only on the reference
    and ``max_pairs`` (the value it was prepared for), so a search
    computes them once, not once per candidate.  Build it with
    ``prepare_reference``.
    """

    points: np.ndarray
    subsample: np.ndarray
    self_term: float
    max_pairs: int


def _prepare(points: np.ndarray, max_pairs: int, rng) -> PreparedReference:
    cap = _cap(max_pairs)
    sub = points
    if points.shape[0] > cap:
        sub = points[rng.choice(points.shape[0], cap, replace=False)]
    return PreparedReference(points=points, subsample=sub,
                             self_term=float(_mean_dists((sub, sub))[0]),
                             max_pairs=max_pairs)


def prepare_reference(points, max_pairs: int = MAX_PAIRS) -> PreparedReference:
    """Subsample ``points`` and compute E||B - B'|| once.

    The points are copied and made read-only, so the precomputed terms
    cannot go stale.
    """
    points = _points(np.array(points, dtype=np.float64))
    points.flags.writeable = False
    return _prepare(points, max_pairs, np.random.default_rng(0))


def energy_distance(a, b, max_pairs: int = MAX_PAIRS) -> float:
    """2 E||A - B|| - E||A - A'|| - E||B - B'|| over sample sets.

    All-pairs averages over at most ``floor(sqrt(max_pairs))`` rows per
    set: a larger set is subsampled deterministically to that many rows
    (2000 at the default, so a 2048-point reference is scored on 2000).
    ``b`` may be a ``PreparedReference``, whose subsample and self-term
    are reused; the result is bitwise the same as for its raw points.
    """
    a = _points(a)
    ref = b if isinstance(b, PreparedReference) else None
    b = ref.points if ref is not None else _points(b)
    if a.shape[1] != b.shape[1]:
        raise ParameterError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    cap = _cap(max_pairs)
    rng = np.random.default_rng(0)
    if a.shape[0] > cap:
        a = a[rng.choice(a.shape[0], cap, replace=False)]
        ref = None  # a's draw moved rng, so b's subsample is a different one
    if ref is None or ref.max_pairs != max_pairs:
        ref = _prepare(b, max_pairs, rng)
    ab, aa = _mean_dists((a, ref.subsample), (a, a))
    return float(2.0 * ab - aa - ref.self_term)


@dataclass(frozen=True)
class SearchSpace:
    """Free-entry mask and per-row normalization targets for a search.

    Free entries form a band of ``band`` columns immediately left of the
    diagonal in each row (for the terminal row, left of the last
    column).  Row signal sums are pinned to ``targets`` — by default the
    base matrix's own (fsum) row sums, so the marginal structure is
    preserved.
    """

    base: CoefficientMatrix
    band: int = 3
    bounds: tuple = (-2.0, 2.0)
    targets: np.ndarray | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "band", check_int("band", self.band, 1))
        lo, hi = self.bounds
        if not lo < hi:
            raise ParameterError(f"invalid bounds {self.bounds}")
        t = (row_sums(self.base.signal) if self.targets is None
             else np.asarray(self.targets, dtype=np.float64))
        if t.shape != (self.base.n_rows,):
            raise ValidationError(
                f"need {self.base.n_rows} targets, got {t.shape}")
        object.__setattr__(self, "targets", t)

    def free_entries(self):
        """(row, col) positions allowed to move, row-major order."""
        m = self.base
        out = []
        for i in range(1, m.n_rows):
            diag = min(i, m.n_evals) - 1  # newest available output
            for j in range(max(0, diag - self.band), diag + 1):
                out.append((i, j))
        return out


@dataclass(frozen=True)
class SearchResult:
    best: CoefficientMatrix
    objective_trace: tuple
    evaluations: int
    seed: int

    @property
    def best_objective(self) -> float:
        return self.objective_trace[-1]


def optimize_matrix(space: SearchSpace, predictor, reference,
                    budget: int = 2000, seed: int = 0,
                    n_samples: int = 512, step: float = 0.25,
                    log=None) -> SearchResult:
    """Banded coordinate descent under common random numbers.

    Every evaluation runs the candidate matrix with the same executor
    seed and scores it against the fixed reference set, whose side of
    the energy distance is prepared once per search; the caller and one
    worker thread fill each distance matrix (``_mean_dists``).  The starting
    matrix is run in full (``run_matrix``); its output and state buffers
    are kept as the current ones, and a candidate that edits row ``i``
    copies rows ``:i`` of them into a second pair and replays only from
    row ``i`` (``engine._play``), with the same draws.  The pairs swap when a
    candidate is accepted.  The samples are bitwise those of a full run
    of the candidate.  Candidates that fail with a package or arithmetic
    error are charged against the budget and skipped, as is an edit that
    leaves its row summing to zero against a nonzero target; any other
    exception propagates.  The first evaluation scores the starting
    matrix normalized to the targets, so the final objective never
    exceeds the baseline.
    """
    budget = check_int("budget", budget, 0)
    n_samples = check_int("n_samples", n_samples, 1)
    seed = check_int("seed", seed, 0)
    if not (math.isfinite(step) and step > 0.0):
        raise ParameterError(f"need a finite step > 0, got {step}")
    reference = prepare_reference(reference)
    rng = np.random.default_rng(seed)
    current, _ = normalize_rows(space.base, targets=space.targets)
    if budget == 0:
        return SearchResult(best=current, objective_trace=(), evaluations=0,
                            seed=seed)
    run = run_matrix(RunConfig(matrix=current, predictor=predictor,
                               n=n_samples, seed=seed))
    best_obj = energy_distance(run.samples, reference)
    draws = _draw(current, n_samples, predictor.d, seed)
    outputs = run.trajectory.reshape(current.n_evals, draws.shape[1])
    states = run.states.reshape(outputs.shape)
    spare, spare_states = np.empty_like(outputs), np.empty_like(states)
    trace, used = [best_obj], 1
    entries = space.free_entries()
    lo, hi = space.bounds
    scale = step
    while used < budget:
        improved = False
        order = rng.permutation(len(entries))
        for k in order:
            if used >= budget:
                break
            i, j = entries[k]
            ref_scale = max(abs(space.targets[i]), 0.1)
            delta = scale * ref_scale * (1.0 if rng.random() < 0.5 else -1.0)
            cand_signal = current.signal.copy()
            row = cand_signal[i]
            row[j] = min(max(row[j] + delta, lo), hi)
            used += 1
            if rescale_row(row, space.targets[i]) is None:
                continue
            spare[:i] = outputs[:i]  # every row when i is the terminal row
            spare_states[:i] = states[:i]
            try:
                cand = replace(current, signal=cand_signal)
                obj = energy_distance(
                    _play(cand, predictor, draws, spare, spare_states, i),
                    reference)
            except (NimatrixError, ArithmeticError) as exc:  # charge, log
                if log is not None:
                    log(f"candidate at ({i},{j}) failed: {exc}")
                continue
            if obj < best_obj:
                best_obj = obj
                current = cand
                outputs, spare = spare, outputs
                states, spare_states = spare_states, states
                improved = True
            trace.append(best_obj)
        if not improved:
            scale *= 0.5
            if scale < 1e-4:
                break
    return SearchResult(best=current, objective_trace=tuple(trace),
                        evaluations=used, seed=seed)
