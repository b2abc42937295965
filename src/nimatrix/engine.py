"""Generic executor for coefficient matrices, plus the repeated
self-enhancement loop.

``run_matrix`` plays a coefficient matrix forward as matrix products.
All noise is drawn in one call, and every predictor output is written
into one preallocated ``(n_evals, n*d)`` buffer.  Row ``i``'s model input
is then two GEMVs, its signal weights times the earlier outputs plus its
noise weights times the draws; the terminal row's combination is the
returned sample.  The draws are the same stream, in the same column
order, as one ``(n, d)`` batch per noise column.  Run on a matrix traced
from a sampler with the same seed and predictor, the executor reproduces
the native sampler output.

The two noise modes share one row rule.  A ``traced`` matrix supplies
its own noise block; a ``single-terminal`` matrix gets a one-column block
of ``c1`` at each row time (0 at ``TERMINAL_OUTPUT``): one shared draw
at the schedule's noise amplitude.  Files saying ``custom`` load as
``traced``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffmatrix import CoefficientMatrix, ideal_coeffs
from .errors import NumericError, ParameterError, ValidationError
from .schedule import Schedule, mixing_coeffs


@dataclass(frozen=True)
class RunConfig:
    matrix: CoefficientMatrix
    predictor: object
    n: int = 1
    seed: int = 0
    record_trajectory: bool = False


@dataclass(frozen=True)
class RunResult:
    samples: np.ndarray                  # (n, d)
    trajectory: tuple = ()               # per-evaluation outputs if recorded


def _noise_block(m: CoefficientMatrix) -> np.ndarray:
    """Per-row weights on the noise draws, one column per draw."""
    if m.noise_mode == "traced":
        return m.noise
    s = m.schedule()
    return np.array([[ideal_coeffs(s, t)[1]] for t in m.row_times])


def run_matrix(cfg: RunConfig) -> RunResult:
    """Execute the matrix with the given predictor.

    One ``standard_normal((m, n, d))`` call draws the ``m`` noise columns,
    the same stream as one ``(n, d)`` batch per column in column order.
    Each predictor output fills one row of an ``(n_evals, n*d)`` buffer;
    row ``i``'s state is ``signal[i, :i] @ outputs[:i] + noise[i] @ draws``
    and the terminal row uses its full signal row.
    """
    m = cfg.matrix
    pred = cfg.predictor
    if cfg.n < 1:
        raise ParameterError(f"need n >= 1, got {cfg.n}")
    noise = _noise_block(m)
    shape = (cfg.n, pred.d)
    rng = np.random.default_rng(cfg.seed)
    width = cfg.n * pred.d
    draws = rng.standard_normal((noise.shape[1],) + shape).reshape(-1, width)
    outputs = np.empty((m.n_evals, width))
    for i in range(m.n_evals):
        x = noise[i] @ draws
        x += m.signal[i, :i] @ outputs[:i]
        y = np.asarray(pred(m.row_times[i], x.reshape(shape)))
        if y.shape != shape:
            raise ValidationError(
                f"predictor returned shape {y.shape}, expected {shape}")
        if not np.isfinite(y).all():
            raise NumericError(f"predictor returned a non-finite value at "
                               f"row {i} (t = {m.row_times[i]!r})")
        outputs[i] = y.reshape(-1)
    samples = (m.signal[-1] @ outputs + noise[-1] @ draws).reshape(shape)
    trajectory = ()
    if cfg.record_trajectory:
        trajectory = tuple(outputs.reshape((m.n_evals,) + shape))
    return RunResult(samples=samples, trajectory=trajectory)


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
