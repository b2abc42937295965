"""Black-box improvement of coefficient matrices.

The objective is the energy distance between samples produced by a
candidate matrix and a reference sample set from the target
distribution — a feature-free two-sample statistic that is zero iff the
distributions agree.  Its all-pairs means never hold a whole distance
matrix.  Each sum is cut along NumPy's pairwise-summation tree into
leaves of at most ``_ROWS`` rows, which the caller and the package's one
worker thread take in turn (``_mean_dists`` through ``_pool.run_blocks``,
the block loop the dataset oracle also uses); a leaf fills its rows and
sums its entries while they are in cache, and the caller adds the leaf
sums up the tree.  Unlike the oracle's GEMMs, ``cdist`` does not run on
BLAS threads, so the split is always taken.  Every entry is computed on
its own and every addition is one that NumPy's ``pairwise_sum`` makes, so
each mean is bitwise the single-threaded ``cdist(x, y).mean()``.
``scipy.spatial.distance.cdist`` is imported at the first ``_mean_dists``
call, on the caller's thread before any leaf is handed out, so importing
this module loads no SciPy and the worker never imports.

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

from dataclasses import dataclass, field, replace

import numpy as np

from ._pool import run_blocks
from .coeffmatrix import CoefficientMatrix, rescale_row, row_sums
from .engine import RunConfig, _draw, _play, run_matrix
from .errors import NimatrixError, ParameterError, check_array, check_int

#: ``scipy.spatial.distance.cdist``, bound by the first ``_mean_dists``
#: call (module docstring); every leaf looks it up here.
cdist = None


#: Each sample set is scored on at most this many rows; a larger set is
#: subsampled deterministically, so a 2048-point reference is scored on 2000.
MAX_ROWS = 2000

#: A candidate moves one entry by this much times its row's target at
#: first, and by half as much after each sweep that accepts nothing.
STEP = 0.25

#: A moved entry is clipped to +-ENTRY_BOUND; its row's rescale can pass it.
ENTRY_BOUND = 2.0

# cdist releases the GIL, so the worker thread can fill distance rows
# while the caller does.  A 64-row block against the 2000-point reference
# is about half a millisecond and 1 MB: small enough to be summed while it
# is still in a 2 MB L2 cache and that the caller waits at most that long
# for the worker's last block, large enough that the per-call overhead of
# cdist (about 10 us) stays small.
_ROWS = 64

#: NumPy's ``pairwise_sum`` adds a run of at most this many elements with
#: eight accumulators and splits a longer one in two.
_PAIRWISE_BLOCK = 128


def _sum_tree(x, y, lo: int, n: int, leaves: list):
    """NumPy's pairwise-sum tree over entries ``[lo, lo + n)`` of the
    flattened ``cdist(x, y)``, cut into leaves of at most ``_ROWS`` rows'
    worth of entries.

    A run longer than ``_PAIRWISE_BLOCK`` splits at ``n//2`` rounded down
    to a multiple of 8, as ``pairwise_sum`` splits it, so the sum of a
    leaf is bitwise its subtree of the full buffer's sum (both reductions
    start from 0.0, which changes no sum of distances).  A leaf is the
    list ``[x, y, lo, n, sum]``, appended to ``leaves`` with its sum still
    ``None``; an inner node is the pair of its halves.
    """
    if n <= max(_ROWS * y.shape[0], _PAIRWISE_BLOCK):
        leaf = [x, y, lo, n, None]
        leaves.append(leaf)
        return leaf
    h = n // 2 - (n // 2) % 8
    return (_sum_tree(x, y, lo, h, leaves),
            _sum_tree(x, y, lo + h, n - h, leaves))


def _sum_leaf(leaf: list) -> None:
    """Fill the rows a leaf's entries lie in and sum the entries.

    The leaf may start and end inside a row, so its boundary rows can be
    filled by two leaves; the block is at most ``_ROWS + 1`` rows (or a
    ``_PAIRWISE_BLOCK`` run's worth of short rows).
    """
    x, y, lo, n, _ = leaf
    r0, r1 = lo // y.shape[0], -(-(lo + n) // y.shape[0])
    start = lo - r0 * y.shape[0]
    leaf[4] = cdist(x[r0:r1], y).reshape(-1)[start:start + n].sum()


def _total(node):
    if isinstance(node, list):
        return node[4]
    return _total(node[0]) + _total(node[1])


def _mean_dists(*pairs) -> list:
    """Mean Euclidean distance over all pairs of rows of each ``(x, y)``,
    bitwise ``cdist(x, y).mean()``, with no ``(n_x, n_y)`` buffer.

    The leaves of every pair's tree (``_sum_tree``) go to
    ``_pool.run_blocks`` as one list, and each pair's leaf sums are added
    up its tree.
    """
    global cdist
    if cdist is None:
        from scipy.spatial.distance import cdist
    leaves = []
    trees = [_sum_tree(x, y, 0, x.shape[0] * y.shape[0], leaves)
             for x, y in pairs]
    run_blocks(_sum_leaf, leaves)
    return [_total(tree) / (x.shape[0] * y.shape[0])
            for tree, (x, y) in zip(trees, pairs)]


def _points(x) -> np.ndarray:
    """A sample set as ``(n, d)`` points; one ``(d,)`` point is ``(1, d)``."""
    x = np.atleast_2d(check_array("sample sets", x, (1, 2)))
    if x.size == 0:
        raise ParameterError("sample sets must be non-empty")
    return x


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference set with its side of the energy distance precomputed.

    ``subsample`` is the set ``energy_distance`` scores against and
    ``self_term`` is its E||B - B'||; both depend only on the reference,
    so a search computes them once, not once per candidate.  Build it
    with ``prepare_reference``.
    """

    points: np.ndarray
    subsample: np.ndarray
    self_term: float


def _prepare(points: np.ndarray, rng) -> PreparedReference:
    sub = points
    if points.shape[0] > MAX_ROWS:
        sub = points[rng.choice(points.shape[0], MAX_ROWS, replace=False)]
    return PreparedReference(points=points, subsample=sub,
                             self_term=float(_mean_dists((sub, sub))[0]))


def prepare_reference(points) -> PreparedReference:
    """Subsample ``points`` and compute E||B - B'|| once.

    The points are copied and made read-only, so the precomputed terms
    cannot go stale.
    """
    points = np.array(_points(points))
    points.flags.writeable = False
    return _prepare(points, np.random.default_rng(0))


def energy_distance(a, b) -> float:
    """2 E||A - B|| - E||A - A'|| - E||B - B'|| over sample sets.

    All-pairs averages over at most ``MAX_ROWS`` rows per set: a larger
    set is subsampled deterministically to that many rows.
    ``b`` may be a ``PreparedReference``, whose subsample and self-term
    are reused; the result is bitwise the same as for its raw points.
    """
    a = _points(a)
    ref = b if isinstance(b, PreparedReference) else None
    b = ref.points if ref is not None else _points(b)
    if a.shape[1] != b.shape[1]:
        raise ParameterError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    rng = np.random.default_rng(0)
    if a.shape[0] > MAX_ROWS:
        a = a[rng.choice(a.shape[0], MAX_ROWS, replace=False)]
        ref = None  # a's draw moved rng, so b's subsample is a different one
    if ref is None:
        ref = _prepare(b, rng)
    ab, aa = _mean_dists((a, ref.subsample), (a, a))
    return float(2.0 * ab - aa - ref.self_term)


@dataclass(frozen=True)
class SearchSpace:
    """Free-entry mask and per-row normalization targets for a search.

    Free entries form a band of ``band`` columns immediately left of the
    diagonal in each row (for the terminal row, left of the last
    column).  Row signal sums are pinned to ``targets``, the base
    matrix's own (fsum) row sums, so the marginal structure is preserved.
    """

    base: CoefficientMatrix
    band: int = 3
    targets: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "band", check_int("band", self.band, 1))
        object.__setattr__(self, "targets", row_sums(self.base.signal))

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
                    n_samples: int = 512, log=None) -> SearchResult:
    """Banded coordinate descent under common random numbers.

    Every evaluation runs the candidate matrix with the same executor
    seed and scores it against the fixed reference set, whose side of
    the energy distance is prepared once per search; the caller and one
    worker thread fill and sum each distance block (``_mean_dists``).
    The starting matrix is run in full (``run_matrix``); its output and
    state buffers are kept as the current ones, and a candidate that
    edits row ``i`` copies rows ``:i`` of them into a second pair and
    replays only from row ``i`` (``engine._play``), with the same draws.
    The pairs swap when a candidate is accepted.  The samples are bitwise
    those of a full run of the candidate.  Candidates that fail with a
    package or arithmetic error are charged against the budget and
    skipped, as is an edit leaving its row summing to zero against a
    nonzero target; other exceptions propagate.  The first evaluation
    scores the starting matrix, whose rows sum to the targets, so the
    final objective never exceeds the baseline.  The edited entry is
    clipped to ``ENTRY_BOUND``; the row's rescale can take entries past it.
    """
    budget = check_int("budget", budget, 0)
    n_samples = check_int("n_samples", n_samples, 1)
    seed = check_int("seed", seed, 0)
    reference = prepare_reference(reference)
    rng = np.random.default_rng(seed)
    current = space.base
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
    scale = STEP
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
            row[j] = min(max(row[j] + delta, -ENTRY_BOUND), ENTRY_BOUND)
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
