"""Black-box improvement of coefficient matrices.

The objective is the energy distance between samples produced by a
candidate matrix and a reference sample set from the target
distribution — a feature-free two-sample statistic that is zero iff the
distributions agree.  The search is a banded coordinate descent: only
entries within ``band`` columns left of the diagonal move, every
candidate row is re-normalized to its marginal signal target before
evaluation, evaluations share common random numbers, and only
improvements are accepted, so the objective trace is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from .coeffmatrix import CoefficientMatrix
from .engine import RunConfig, run_matrix
from .errors import NimatrixError, ParameterError, ValidationError


MAX_PAIRS = 4_000_000


def _cap(max_pairs: int) -> int:
    return max(1, int(np.sqrt(max_pairs)))


def _points(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.size == 0:
        raise ParameterError("sample sets must be non-empty")
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
                             self_term=float(cdist(sub, sub).mean()),
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
    ab = cdist(a, ref.subsample).mean()
    aa = cdist(a, a).mean()
    return float(2.0 * ab - aa - ref.self_term)


@dataclass(frozen=True)
class SearchSpace:
    """Free-entry mask and per-row normalization targets for a search.

    Free entries form a band of ``band`` columns immediately left of the
    diagonal in each row (for the terminal row, left of the last
    column).  Row signal sums are pinned to ``targets`` — by default the
    base matrix's own row sums, so the marginal structure is preserved.
    """

    base: CoefficientMatrix
    band: int = 3
    bounds: tuple = (-2.0, 2.0)
    targets: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.band < 1:
            raise ParameterError(f"need band >= 1, got {self.band}")
        lo, hi = self.bounds
        if not lo < hi:
            raise ParameterError(f"invalid bounds {self.bounds}")
        if self.targets is None:
            sums = self.base.signal.sum(axis=1)
            object.__setattr__(self, "targets", sums)
        else:
            t = np.asarray(self.targets, dtype=np.float64)
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

    def clamp(self, v: float) -> float:
        lo, hi = self.bounds
        return min(max(v, lo), hi)


@dataclass(frozen=True)
class SearchResult:
    best: CoefficientMatrix
    objective_trace: tuple
    evaluations: int
    seed: int

    @property
    def best_objective(self) -> float:
        return self.objective_trace[-1]


def _renormalize(space: SearchSpace, signal: np.ndarray):
    """Scale each row to its target sum; None if any row is unfixable."""
    out = signal.copy()
    for i in range(out.shape[0]):
        rs = out[i].sum()
        if space.targets[i] == 0.0 and rs == 0.0:
            continue
        if rs == 0.0 or not np.isfinite(rs):
            return None
        out[i] *= space.targets[i] / rs
    return out


def optimize_matrix(space: SearchSpace, predictor, reference,
                    budget: int = 2000, seed: int = 0,
                    n_samples: int = 512, step: float = 0.25,
                    log=None) -> SearchResult:
    """Banded coordinate descent under common random numbers.

    Every evaluation runs the candidate matrix with the same executor
    seed and scores it against the fixed reference set, whose side of
    the energy distance is prepared once per search.  Candidates that
    fail with a package or arithmetic error are charged against the
    budget and skipped; any other exception propagates.  The
    first evaluation scores the (re-normalized) starting matrix, so the
    final objective never exceeds the baseline.
    """
    if budget < 0:
        raise ParameterError(f"need budget >= 0, got {budget}")
    reference = prepare_reference(reference)
    rng = np.random.default_rng(seed)

    def evaluate(matrix: CoefficientMatrix) -> float:
        res = run_matrix(RunConfig(matrix=matrix, predictor=predictor,
                                   n=n_samples, seed=seed))
        return energy_distance(res.samples, reference)

    signal = _renormalize(space, space.base.signal.copy())
    if signal is None:
        raise ValidationError("base matrix has a zero row with nonzero target")
    current = replace(space.base, signal=signal)
    trace = []
    used = 0
    if budget == 0:
        return SearchResult(best=current, objective_trace=(), evaluations=0,
                            seed=seed)
    best_obj = evaluate(current)
    used += 1
    trace.append(best_obj)
    entries = space.free_entries()
    scale = step
    while used < budget:
        improved = False
        order = rng.permutation(len(entries))
        for k in order:
            if used >= budget:
                break
            i, j = entries[k]
            base_val = current.signal[i, j]
            ref_scale = max(abs(space.targets[i]), 0.1)
            delta = scale * ref_scale * (1.0 if rng.random() < 0.5 else -1.0)
            cand_signal = current.signal.copy()
            cand_signal[i, j] = space.clamp(base_val + delta)
            cand_signal = _renormalize(space, cand_signal)
            used += 1
            if cand_signal is None:
                continue
            try:
                cand = replace(current, signal=cand_signal)
                obj = evaluate(cand)
            except (NimatrixError, ArithmeticError) as exc:  # charge, log
                if log is not None:
                    log(f"candidate at ({i},{j}) failed: {exc}")
                continue
            if obj < best_obj:
                best_obj = obj
                current = cand
                improved = True
            trace.append(best_obj)
        if not improved:
            scale *= 0.5
            if scale < 1e-4:
                break
    return SearchResult(best=current, objective_trace=tuple(trace),
                        evaluations=used, seed=seed)
