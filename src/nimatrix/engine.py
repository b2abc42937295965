"""Generic executor for coefficient matrices, plus the repeated
self-enhancement loop.

``run_matrix`` plays a coefficient matrix forward as matrix products.
All noise is drawn in one call (``_draw``), and every predictor output is
written into one preallocated ``(n_evals, n*d)`` buffer.  The row loop is
``_play``: row ``i``'s model input is two GEMVs, its signal weights times
the earlier outputs plus its noise weights times the draws, and the
terminal row's combination is the returned sample.  ``_play`` starts at
any row, reading the rows before it from the buffer as already played, so
the search replays a candidate from its edited row onward; ``run_matrix``
is ``_draw`` then ``_play`` from row 0, and there is one executor.  The
draws are the same stream, in the same column order, as one ``(n, d)``
batch per noise column.  Run on a matrix traced from a sampler with the
same seed and predictor, the executor reproduces the native sampler
output.

The executor plays the matrix's noise block as stored; a single-terminal
file loads as its one-column ``c1`` block (``coeffmatrix.from_payload``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffmatrix import CoefficientMatrix
from .errors import NumericError, ParameterError, ValidationError
from .schedule import Schedule, mixing_coeffs


@dataclass(frozen=True)
class RunConfig:
    matrix: CoefficientMatrix
    predictor: object
    n: int = 1
    seed: int = 0


@dataclass(frozen=True)
class RunResult:
    samples: np.ndarray                  # (n, d)
    trajectory: np.ndarray               # (n_evals, n, d) predictor outputs


def _draw(m: CoefficientMatrix, n: int, d: int, seed: int) -> np.ndarray:
    """The run's noise columns as one ``(k, n*d)`` array.

    One ``standard_normal((k, n, d))`` call draws the ``k`` noise
    columns, the same stream as one ``(n, d)`` batch per column in
    column order.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m.noise.shape[1], n, d)).reshape(-1, n * d)


def _play(m: CoefficientMatrix, pred, draws: np.ndarray,
          outputs: np.ndarray, start: int) -> np.ndarray:
    """Play rows ``start..n_evals-1`` into ``outputs``; return the sample.

    ``outputs`` is the ``(n_evals, n*d)`` buffer of predictor outputs;
    its rows before ``start`` are read as already played.  Row ``i``'s
    state is ``signal[i, :i] @ outputs[:i] + noise[i] @ draws`` and the
    terminal row's combination, using its full signal row, is returned
    as an ``(n, d)`` array.
    """
    shape = (outputs.shape[1] // pred.d, pred.d)
    for i in range(start, m.n_evals):
        x = m.noise[i] @ draws
        x += m.signal[i, :i] @ outputs[:i]
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

    The noise is drawn once (``_draw``) and every row is played into one
    ``(n_evals, n*d)`` buffer (``_play`` from row 0).  The result's
    ``trajectory`` is a view of that buffer, not a copy.
    """
    m = cfg.matrix
    d = cfg.predictor.d
    draws = _draw(m, cfg.n, d, cfg.seed)
    outputs = np.empty((m.n_evals, cfg.n * d))
    samples = _play(m, cfg.predictor, draws, outputs, 0)
    return RunResult(samples=samples,
                     trajectory=outputs.reshape((m.n_evals, cfg.n, d)))


def over_enhance(pred, s: Schedule, t, x_init, k: int,
                 mode: str = "renoise", seed: int = 0):
    """Iterate the predictor at a fixed time point.

    ``renoise``: each iterate is re-mixed with fresh noise at the fixed
    level before the next prediction, ``x <- f_t(c0 x + c1 eps)``.
    ``dry``: the raw prediction feeds straight back in, ``x <- f_t(x)``.
    Returns the full sequence including ``x_init``.
    """
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
    if mode not in ("renoise", "dry"):
        raise ParameterError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    x = np.asarray(x_init, dtype=np.float64)
    seq = [x]
    c0, c1 = mixing_coeffs(s, t)
    for _ in range(k):
        if mode == "renoise":
            x = np.asarray(pred(t, c0 * x + c1 * rng.standard_normal(x.shape)))
        else:
            x = np.asarray(pred(t, x))
        seq.append(x)
    return seq
