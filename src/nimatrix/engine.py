"""Generic executor for coefficient matrices, plus the repeated
self-enhancement loop.

``run_matrix`` plays a coefficient matrix forward: for each row it forms
the model input as the stored linear combination of earlier outputs and
noise draws, queries the predictor, and finally returns the terminal-row
combination.  Run on a matrix traced from a sampler with the same seed
and predictor, it reproduces the native sampler output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffmatrix import CoefficientMatrix, TERMINAL_OUTPUT
from .errors import NumericError, ParameterError, ValidationError
from .schedule import Schedule, mixing_coeffs


@dataclass(frozen=True)
class RunConfig:
    matrix: CoefficientMatrix
    predictor: object
    n: int = 1
    seed: int = 0
    noise_mode: str | None = None  # default: the matrix's own mode
    record_trajectory: bool = False


@dataclass(frozen=True)
class RunResult:
    samples: np.ndarray                  # (n, d)
    trajectory: tuple = ()               # per-evaluation outputs if recorded


def _noise_amplitude(s: Schedule, t: float) -> float:
    if t == TERMINAL_OUTPUT:
        return 0.0
    return mixing_coeffs(s, t)[1]


def run_matrix(cfg: RunConfig) -> RunResult:
    """Execute the matrix with the given predictor.

    Noise handling:

    - ``traced``: the matrix's noise block is used as stored; one
      Gaussian batch is drawn per noise column, in column order.
    - ``single-terminal``: rows carry noise ``c1(t) * eps_T`` with a
      single shared draw (the deterministic-sampler convention for
      matrices authored without a noise block).
    - ``custom``: like traced (the stored block is trusted as-is).
    """
    m = cfg.matrix
    pred = cfg.predictor
    mode = cfg.noise_mode or m.noise_mode
    if cfg.n < 1:
        raise ParameterError(f"need n >= 1, got {cfg.n}")
    if mode in ("traced", "custom") and m.noise.size == 0 and m.n_evals > 0:
        raise ValidationError(f"matrix has no noise block for mode {mode!r}")
    d = pred.d
    s = m.schedule()
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.n, d)
    if mode in ("traced", "custom"):
        draws = [rng.standard_normal(shape) for _ in range(m.noise.shape[1])]
    else:
        draws = [rng.standard_normal(shape)]
    outputs: list = []

    def row_state(i: int) -> np.ndarray:
        x = np.zeros(shape)
        row = m.signal[i]
        for j in np.flatnonzero(row):
            if j >= len(outputs):
                raise ValidationError(
                    f"row {i} references evaluation {j} before it exists")
            x = x + row[j] * outputs[j]
        if mode in ("traced", "custom"):
            nrow = m.noise[i]
            for j in np.flatnonzero(nrow):
                x = x + nrow[j] * draws[j]
        else:
            amp = _noise_amplitude(s, m.row_times[i])
            if amp:
                x = x + amp * draws[0]
        return x

    for i in range(m.n_evals):
        x = row_state(i)
        y = np.asarray(pred(m.row_times[i], x))
        if y.shape != shape:
            raise ValidationError(
                f"predictor returned shape {y.shape}, expected {shape}")
        if not np.isfinite(y).all():
            raise NumericError(f"predictor returned a non-finite value at "
                               f"row {i} (t = {m.row_times[i]!r})")
        outputs.append(y)
    samples = row_state(m.n_rows - 1)
    return RunResult(samples=samples,
                     trajectory=tuple(outputs) if cfg.record_trajectory else ())


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
