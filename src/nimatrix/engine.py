"""Generic executor for coefficient matrices, plus the repeated
self-enhancement loop.

``run_matrix`` plays a coefficient matrix forward: for each row it forms
the model input as the stored linear combination of earlier outputs and
noise draws, queries the predictor, and finally returns the terminal-row
combination.  Run on a matrix traced from a sampler with the same seed
and predictor, it reproduces the native sampler output.

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

    One Gaussian batch is drawn per noise column, in column order, and
    each row adds its weighted outputs and then its weighted draws.
    """
    m = cfg.matrix
    pred = cfg.predictor
    if cfg.n < 1:
        raise ParameterError(f"need n >= 1, got {cfg.n}")
    noise = _noise_block(m)
    shape = (cfg.n, pred.d)
    rng = np.random.default_rng(cfg.seed)
    draws = [rng.standard_normal(shape) for _ in range(noise.shape[1])]
    outputs: list = []

    def row_state(i: int) -> np.ndarray:
        x = np.zeros(shape)
        for block, terms in ((m.signal, outputs), (noise, draws)):
            row = block[i]
            for j in np.flatnonzero(row):
                x = x + row[j] * terms[j]
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
