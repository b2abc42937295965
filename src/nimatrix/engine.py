"""Generic executor for coefficient matrices, plus the repeated
self-enhancement loop.

``run_matrix`` plays a coefficient matrix forward as matrix products.
A run makes one allocation, a ``(k + 2*n_evals, n*d)`` run buffer for
``k`` noise columns: its first ``k`` rows hold the draws, written by one
call (``_draw``), the next ``n_evals`` every predictor output, and the
last ``n_evals`` each input row's state (the model input).  It is the
run's largest allocation, made before any work, so a batch too large to
hold is one ``ParameterError`` naming ``n``.  One block also keeps the
heap mapped between runs in one process: glibc's malloc raises its mmap
threshold to the largest mmapped block freed so far and trims its heap
once more than twice that is free, so one block holding all three parts
(7.4 MB for ddpm-300, ``n = 16``, ``d = 64``) sets the trim threshold
above what a run frees, where three blocks of a third the size let the
heap be trimmed after each run and every page fault in again.  The row
loop is ``_play``, with one row rule:

    x_i = a_i * x_{i-1} + r_sig @ outputs[s0:s1] + r_noise @ draws[n0:n1]

A traced matrix is a short recurrence unrolled, so row ``i`` is mostly
``a_i`` times row ``i-1``.  ``_plan`` derives each row's rule from rows
``i`` and ``i-1`` of the two blocks alone: ``a_i`` is the least-squares
ratio of the rows (signal and noise concatenated), and the residual
``row_i - a_i * row_{i-1}`` is kept on the column spans that cover its
entries above ``CARRY_TOL`` times the row's largest entry.  A row plays
carried only when that saves at least ``CARRY_MIN_SAVING`` terms against
its dense row; otherwise ``a_i = 0`` and the spans are the whole stored
row, two GEMVs.  So a ddpm row costs three terms instead of one per
earlier output and draw, while the rows of a short matrix, and an edited
row that no longer follows its predecessor, play exactly as stored.  The terminal row always plays dense, so the sample is
bitwise ``signal[-1] @ outputs + noise[-1] @ draws``.

``_play`` starts at any row, reading the rows before it from the two
buffers as already played, so the search replays a candidate from its
edited row onward; ``run_matrix`` is ``_draw`` then ``_play`` from row
0, and there is one executor.  The draws are the same stream, in the
same column order, as one ``(n, d)`` batch per noise column.  Run on a
matrix traced from a sampler with the same seed and predictor, the
executor reproduces the native sampler output.

The executor plays the matrix's noise block as stored; a single-terminal
file loads as its one-column ``c1`` block (``coeffmatrix.from_payload``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coeffmatrix import CoefficientMatrix
from .errors import (NumericError, ParameterError, ValidationError,
                     check_array, check_int)
from .schedule import Schedule, mixing_coeffs


@dataclass(frozen=True)
class RunConfig:
    matrix: CoefficientMatrix
    predictor: object
    n: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


@dataclass(frozen=True)
class RunResult:
    samples: np.ndarray                  # (n, d)
    trajectory: np.ndarray               # (n_evals, n, d) predictor outputs
    states: np.ndarray                   # (n_evals, n, d) predictor inputs


def _draw(m: CoefficientMatrix, n: int, d: int, seed: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """The run's noise columns as one ``(k, n*d)`` array, ``out`` if given.

    One ``standard_normal`` call fills the ``k`` noise columns, the same
    stream as one ``(n, d)`` batch per column in column order.
    """
    if out is None:
        out = np.empty((m.noise.shape[1], n * d))
    np.random.default_rng(seed).standard_normal(out=out)
    return out


#: Residual entries at most this fraction of the row's largest entry are
#: dropped from a carried row; rounding in a traced recurrence leaves its
#: old columns a few units in the last place, well below it.
CARRY_TOL = 1e-15
#: A row plays carried only if that saves at least this many terms per
#: state element against its dense row.
CARRY_MIN_SAVING = 8


class _Row(NamedTuple):
    """One input row's rule: ``carry * x_{i-1}`` plus two span products."""

    carry: float          # a_i; 0.0 for a dense row
    signal: np.ndarray    # weights on outputs[signal_cols]
    signal_cols: slice
    noise: np.ndarray     # weights on draws[noise_cols]
    noise_cols: slice


def _spans(keep: np.ndarray):
    """First and one-past-last kept column per row; ``(0, 0)`` if none."""
    any_kept = keep.any(axis=1)
    first = keep.argmax(axis=1)
    stop = keep.shape[1] - keep[:, ::-1].argmax(axis=1)
    return np.where(any_kept, first, 0), np.where(any_kept, stop, 0)


#: Rows planned per block, so the plan's temporaries stay a few hundred
#: kB however many rows the matrix has.
_PLAN_ROWS = 64


def _plan(m: CoefficientMatrix, start: int) -> list:
    """The ``_Row`` rules of input rows ``start..n_evals-1``.

    Row ``i``'s rule depends only on rows ``i`` and ``i-1``, so a plan
    from ``start`` equals the rows from ``start`` of the plan from 0.
    """
    n, k = m.n_evals, m.noise.shape[1]
    # Row i has i + k dense terms and a carried row at least its carry
    # term, so rows before ``first`` play dense without being planned.
    first = max(start, 1, CARRY_MIN_SAVING + 1 - k)
    plan = [_dense_row(m, i) for i in range(start, min(first, n))]
    for lo in range(first, n, _PLAN_ROWS):
        plan.extend(_plan_block(m, lo, min(lo + _PLAN_ROWS, n)))
    return plan


def _plan_block(m: CoefficientMatrix, lo: int, hi: int) -> list:
    """The ``_Row`` rules of input rows ``lo..hi-1``, ``lo >= 1``."""
    k = m.noise.shape[1]
    sig, noi = m.signal[lo - 1:hi], m.noise[lo - 1:hi]
    with np.errstate(all="ignore"):  # a non-finite row plays dense
        sq = (sig * sig).sum(axis=1) + (noi * noi).sum(axis=1)
        dot = ((sig[1:] * sig[:-1]).sum(axis=1)
               + (noi[1:] * noi[:-1]).sum(axis=1))
        a = np.divide(dot, sq[:-1], out=np.zeros_like(dot),
                      where=sq[:-1] > 0.0)
        a[~np.isfinite(a)] = 0.0
        r_sig = sig[1:] - a[:, None] * sig[:-1]
        r_noi = noi[1:] - a[:, None] * noi[:-1]
        finite = np.isfinite(r_sig).all(axis=1) & np.isfinite(r_noi).all(axis=1)
    tol = CARRY_TOL * np.maximum(np.abs(sig[1:]).max(axis=1),
                                 np.abs(noi[1:]).max(axis=1))
    s0, s1 = _spans(np.abs(r_sig) > tol[:, None])
    n0, n1 = _spans(np.abs(r_noi) > tol[:, None])
    dense_terms = np.arange(lo, hi) + k
    carried = finite & (dense_terms - (1 + (s1 - s0) + (n1 - n0))
                        >= CARRY_MIN_SAVING)
    plan = []
    for j, i in enumerate(range(lo, hi)):
        if carried[j]:
            plan.append(_Row(float(a[j]), r_sig[j, s0[j]:s1[j]].copy(),
                             slice(s0[j], s1[j]), r_noi[j, n0[j]:n1[j]].copy(),
                             slice(n0[j], n1[j])))
        else:
            plan.append(_dense_row(m, i))
    return plan


def _dense_row(m: CoefficientMatrix, i: int) -> _Row:
    return _Row(0.0, m.signal[i, :i], slice(0, i),
                m.noise[i], slice(0, m.noise.shape[1]))


def _play(m: CoefficientMatrix, pred, draws: np.ndarray,
          outputs: np.ndarray, states: np.ndarray, start: int) -> np.ndarray:
    """Play rows ``start..n_evals-1`` into the buffers; return the sample.

    ``outputs`` and ``states`` are the ``(n_evals, n*d)`` buffers of
    predictor outputs and inputs; their rows before ``start`` are read
    as already played.  The plan (``_plan``) is built from ``start`` on.
    Row ``i``'s state is ``a_i * states[i-1]`` plus its signal weights
    times a span of the outputs plus its noise weights times a span of
    the draws; a dense row (``a_i = 0``) is ``noise[i] @ draws +
    signal[i, :i] @ outputs[:i]``.  The terminal row's combination,
    using its full rows, is returned as an ``(n, d)`` array.
    """
    shape = (outputs.shape[1] // pred.d, pred.d)
    for i, row in enumerate(_plan(m, start), start):
        x = row.noise @ draws[row.noise_cols]
        x += row.signal @ outputs[row.signal_cols]
        if row.carry:
            x += row.carry * states[i - 1]
        states[i] = x
        y = np.asarray(pred(m.row_times[i], x.reshape(shape)))
        if y.shape != shape:
            raise ValidationError(
                f"predictor returned shape {y.shape}, expected {shape}")
        if not np.isfinite(y).all():
            raise NumericError(f"predictor returned a non-finite value at "
                               f"row {i} (t = {m.row_times[i]!r})")
        outputs[i] = y.reshape(-1)
    return (m.signal[-1] @ outputs + m.noise[-1] @ draws).reshape(shape)


def run_matrix(cfg: RunConfig) -> RunResult:
    """Execute the matrix with the given predictor.

    The noise is drawn once (``_draw``) into the run buffer's first rows
    and every row is played into its output and state rows (``_play``
    from row 0).  The result's ``trajectory`` and ``states`` are views of
    that buffer, not copies.  A buffer that cannot be allocated is
    ``ParameterError``.
    """
    m = cfg.matrix
    d = cfg.predictor.d
    k, e = m.noise.shape[1], m.n_evals
    try:
        buf = np.empty((k + 2 * e, cfg.n * d))
    except (MemoryError, ValueError):  # ValueError: past NumPy's size limit
        nbytes = 8 * (k + 2 * e) * cfg.n * d
        raise ParameterError(f"n = {cfg.n} needs a run buffer of {nbytes} "
                             "bytes, more than can be allocated") from None
    draws = _draw(m, cfg.n, d, cfg.seed, buf[:k])
    outputs, states = buf[k:k + e], buf[k + e:]
    samples = _play(m, cfg.predictor, draws, outputs, states, 0)
    shape = (e, cfg.n, d)
    return RunResult(samples=samples, trajectory=outputs.reshape(shape),
                     states=states.reshape(shape))


def over_enhance(pred, s: Schedule, t, x_init, k: int,
                 mode: str = "renoise", seed: int = 0):
    """Iterate the predictor at a fixed time point.

    ``renoise``: each iterate is re-mixed with fresh noise at the fixed
    level before the next prediction, ``x <- f_t(c0 x + c1 eps)``.
    ``dry``: the raw prediction feeds straight back in, ``x <- f_t(x)``.
    ``x_init`` is one ``(d,)`` state or a ``(b, d)`` batch of finite
    numbers (``check_array``).  Returns the full sequence including
    ``x_init``.
    """
    k = check_int("k", k, 0)
    if mode not in ("renoise", "dry"):
        raise ParameterError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(check_int("seed", seed, 0))
    x = check_array("x_init", x_init, (1, 2))
    seq = [x]
    c0, c1 = mixing_coeffs(s, t)
    for _ in range(k):
        if mode == "renoise":
            x = np.asarray(pred(t, c0 * x + c1 * rng.standard_normal(x.shape)))
        else:
            x = np.asarray(pred(t, x))
        seq.append(x)
    return seq
