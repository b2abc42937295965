"""Posterior-concentration statistics and frequency-domain diagnostics.

The central statistic: draw an atom ``X0``, form ``x_t = c0 X0 + c1 eps``,
and ask whether the posterior over the atom set already concentrates
(max weight > 0.9) — the regime where the ideal posterior-mean predictor
collapses onto a single training sample.  The fraction of such draws per
time and its Wilson confidence interval quantify how much of the
trajectory operates in memorization territory.  Each draw needs only its
posterior's most probable atom and that weight, which
``oracles.posterior_top`` reads from each row block of weights while the
block is still in cache.

The spectral helpers read the same phenomenon per frequency band: with
signal amplitude ``c0`` and unit-variance noise at amplitude ``c1``,
bands whose signal amplitude falls below the noise floor (SNR < 1) are
effectively erased at that time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .oracles import Dataset, posterior_top
# bench/tracing.py spans analysis.posterior_weights, so the name stays bound
from .oracles import posterior_weights  # noqa: F401
from .schedule import Schedule, mixing_coeffs


@dataclass(frozen=True)
class DegradationRow:
    family: str
    t: float
    rate_degraded: float
    rate_to_source: float
    trials: int
    ci_degraded: float      # Wilson 95% half-width
    ci_to_source: float


@dataclass(frozen=True)
class DegradationReport:
    rows: tuple

    def to_csv(self) -> str:
        lines = ["family,t,rate_degraded,rate_to_source,trials,"
                 "ci_degraded,ci_to_source"]
        for r in self.rows:
            lines.append(f"{r.family},{r.t!r},{r.rate_degraded!r},"
                         f"{r.rate_to_source!r},{r.trials},"
                         f"{r.ci_degraded!r},{r.ci_to_source!r}")
        return "\n".join(lines) + "\n"


def _check_counts(successes: int, trials: int) -> None:
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 0 <= successes <= trials:  # also rejects NaN
        raise ParameterError(f"need 0 <= successes <= trials, got "
                             f"{successes} of {trials}")


def wilson_halfwidth(successes: int, trials: int, z: float = 1.959964) -> float:
    """Half-width of the Wilson score interval for a binomial rate."""
    _check_counts(successes, trials)
    p = successes / trials
    denom = 1.0 + z * z / trials
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                   + z * z / (4.0 * trials * trials))
    return half


def wilson_center(successes: int, trials: int, z: float = 1.959964) -> float:
    """Center of the Wilson score interval for a binomial rate."""
    _check_counts(successes, trials)
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (p + z * z / (2.0 * trials)) / denom


def _degradation_batch(ds: Dataset, s: Schedule, t, trials: int, rng,
                       threshold: float):
    """Monte-Carlo draws of the concentration statistic at one time.

    Each trial draws an atom and a forward state from it.  Returns how
    many posteriors have max weight above the threshold (degraded), and
    how many of those put it on the source atom (to source).
    """
    idx = rng.integers(ds.n, size=trials)
    c0, c1 = mixing_coeffs(s, t)
    x = c0 * ds.atoms[idx] + c1 * rng.standard_normal((trials, ds.d))
    top, wmax = posterior_top(ds, s, t, x)
    degraded = wmax > threshold
    to_source = degraded & (top == idx)
    return int(degraded.sum()), int(to_source.sum())


def degradation_table(ds: Dataset, schedules, times, trials: int = 1000,
                      seed: int = 0, threshold: float = 0.9):
    """Monte-Carlo concentration rates per (schedule family, time).

    ``schedules`` is a list of Schedule objects; ``times`` is a list of
    per-schedule time lists (or one shared list of times valid for all).
    Each (family, t) cell uses an independent RNG substream derived from
    the seed, so cells are reproducible independently of each other.
    The max posterior weight lies in (0, 1], so a threshold outside
    (0, 1) would count every draw or none and is rejected.
    """
    if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
            or trials < 1):
        raise ParameterError(f"need an integer trials >= 1, got {trials!r}")
    if not 0.0 < threshold < 1.0:  # also rejects NaN
        raise ParameterError(f"need a threshold in (0, 1), got {threshold}")
    if len(schedules) == 0 or len(times) == 0:
        raise ParameterError("need at least one schedule and one time")
    if not isinstance(times[0], (list, tuple, np.ndarray)):
        times = [times] * len(schedules)
    if len(times) != len(schedules):
        raise ParameterError("need one time list per schedule")
    rows = []
    for si, (s, ts) in enumerate(zip(schedules, times)):
        for ti, t in enumerate(ts):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(si, ti)))
            n_deg, n_src = _degradation_batch(ds, s, t, trials, rng, threshold)
            rows.append(DegradationRow(
                family=s.family, t=float(t),
                rate_degraded=n_deg / trials,
                rate_to_source=n_src / trials,
                trials=trials,
                ci_degraded=wilson_halfwidth(n_deg, trials),
                ci_to_source=wilson_halfwidth(n_src, trials)))
    return DegradationReport(rows=tuple(rows))


# ---------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------

def radial_spectrum(img) -> np.ndarray:
    """Mean 2-D Fourier magnitude over integer-radius annuli.

    Index b holds the average magnitude of all frequency bins whose
    integer wavenumber radius rounds to b; the array runs from the DC
    band to the Nyquist corner.
    """
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"need a square 2-D array, got {a.shape}")
    n = a.shape[0]
    if n < 4:
        raise ValidationError("side must be at least 4")
    if not np.isfinite(a).all():
        raise ValidationError("image has a non-finite pixel")
    f = np.abs(np.fft.fft2(a))
    kx = np.fft.fftfreq(n, d=1.0 / n)
    r = np.sqrt(kx[:, None] ** 2 + kx[None, :] ** 2)
    bands = np.rint(r).astype(int)
    nb = bands.max() + 1
    sums = np.bincount(bands.ravel(), weights=f.ravel(), minlength=nb)
    counts = np.bincount(bands.ravel(), minlength=nb)
    return sums / counts


def snr_profile(img, s: Schedule, t) -> np.ndarray:
    """Per-band signal-to-noise ratio of the mixed state at time t.

    The reference noise is unit-variance white noise, whose expected
    Fourier magnitude is flat at ``side`` per bin; band SNR is
    ``(c0 * A_band)^2 / (c1 * side)^2``.
    """
    a = np.asarray(img, dtype=np.float64)
    amp = radial_spectrum(a)
    c0, c1 = mixing_coeffs(s, t)
    n = a.shape[0]
    noise_amp = c1 * n
    if noise_amp == 0.0:
        return np.full_like(amp, np.inf)
    return (c0 * amp) ** 2 / noise_amp ** 2


def submerged_fraction(profile, threshold: float = 1.0) -> float:
    """Fraction of bands whose SNR falls below the threshold."""
    p = np.asarray(profile, dtype=np.float64)
    if p.size == 0:
        raise ParameterError("empty profile")
    if np.isnan(p).any():
        raise ValidationError("NaN in profile")
    return float(np.mean(p < threshold))
