"""Posterior-concentration statistics and frequency-domain diagnostics.

The central statistic: draw an atom ``X0``, form ``x_t = c0 X0 + c1 eps``,
and ask whether the posterior over the atom set already concentrates
(max weight > 0.9) — the regime where the ideal posterior-mean predictor
collapses onto a single training sample.  The fraction of such draws per
time and its Wilson confidence interval quantify how much of the
trajectory operates in memorization territory.  Each draw needs only
whether its posterior's largest weight is above the threshold, and its
most probable atom where it is.  The dataset oracle's "above" kind
settles that from each row's two largest logits where they prove it: a
draw whose posterior has collapsed onto one atom (all of them at vp
t = 100 on the benchmark's 10000 x 64 dataset), or is spread so that the
second atom alone keeps the top weight at or below the threshold (all at
t = 700 and 900), skips the softmax.  Only the rows between, about half
at t = 300, run it and read their top atom and weight from the row tile
as ``oracles.posterior_top`` does; the counts are those of
``posterior_top``'s ``w > threshold`` and index, bit for bit.

The spectral helpers read the same phenomenon per frequency band: with
signal amplitude ``c0`` and unit-variance noise at amplitude ``c1``,
bands whose signal amplitude falls below the noise floor (SNR < 1) are
effectively erased at that time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ValidationError, check_array, check_int,
                     check_real)
from .oracles import Dataset, _posterior
# bench/tracing.py spans analysis.posterior_weights, so the name stays bound
from .oracles import posterior_weights  # noqa: F401
from .schedule import Schedule, mixing_coeffs

#: The normal quantile of the Wilson intervals' 95% coverage.
WILSON_Z = 1.959964


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


def _check_counts(successes: int, trials: int) -> tuple:
    """The count pair of the Wilson helpers as ``int``s, checked."""
    successes = check_int("successes", successes, 0)
    trials = check_int("trials", trials, 1)
    if successes > trials:
        raise ParameterError(f"need successes <= trials, got "
                             f"{successes} of {trials}")
    return successes, trials


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial rate."""
    successes, trials = _check_counts(successes, trials)
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                   + z * z / (4.0 * trials * trials))
    return half


def wilson_center(successes: int, trials: int) -> float:
    """Center of the 95% Wilson score interval for a binomial rate."""
    successes, trials = _check_counts(successes, trials)
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (p + z * z / (2.0 * trials)) / denom


def _degradation_batch(ds: Dataset, s: Schedule, t, trials: int, rng,
                       threshold: float):
    """Monte-Carlo draws of the concentration statistic at one time.

    Each trial draws an atom and a forward state from it.  Returns how
    many posteriors have max weight above the threshold (degraded), and
    how many of those put it on the source atom (to source).  A trial
    count whose atom indices cannot be allocated is ``ParameterError``.
    """
    try:
        idx = rng.integers(ds.n, size=trials)
    except (MemoryError, ValueError):  # ValueError: past NumPy's size limit
        raise ParameterError(f"trials = {trials} needs {8 * trials} bytes "
                             "of atom indices, more than can be "
                             "allocated") from None
    c0, c1 = mixing_coeffs(s, t)
    x = c0 * ds.atoms[idx] + c1 * rng.standard_normal((trials, ds.d))
    top, degraded = _posterior(ds, s, t, x, "above", threshold)
    # top is -1 where the draw is not degraded
    return int(np.count_nonzero(degraded)), int(np.count_nonzero(top == idx))


def degradation_table(ds: Dataset, schedules, times, trials: int = 1000,
                      seed: int = 0, threshold: float = 0.9):
    """Monte-Carlo concentration rates per (schedule family, time).

    ``schedules`` is a list of Schedule objects; ``times`` is a list of
    per-schedule time lists, one for each schedule, none of them empty.
    Each (family, t) cell uses an independent RNG substream derived from
    the seed, so cells are reproducible independently of each other.
    The max posterior weight lies in (0, 1], so a threshold outside
    (0, 1) would count every draw or none and is rejected.
    """
    trials = check_int("trials", trials, 1)
    seed = check_int("seed", seed, 0)
    threshold = check_real("threshold", threshold)
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"need a threshold in (0, 1), got {threshold}")
    if len(schedules) == 0 or len(times) == 0:
        raise ParameterError("need at least one schedule and one time")
    if len(times) != len(schedules) or not all(
            isinstance(ts, (list, tuple))
            or isinstance(ts, np.ndarray) and ts.ndim == 1 for ts in times):
        raise ParameterError("need one time list per schedule")
    if any(len(ts) == 0 for ts in times):
        raise ParameterError("need at least one time per schedule")
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
    a = check_array("image", img, 2)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"need a square 2-D array, got {a.shape}")
    n = a.shape[0]
    if n < 4:
        raise ValidationError("side must be at least 4")
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
    a = check_array("image", img, 2)
    amp = radial_spectrum(a)
    c0, c1 = mixing_coeffs(s, t)
    n = a.shape[0]
    noise_amp = c1 * n
    if noise_amp == 0.0:
        return np.full_like(amp, np.inf)
    return (c0 * amp) ** 2 / noise_amp ** 2


def submerged_fraction(profile) -> float:
    """Fraction of bands whose SNR falls below 1.

    ``profile`` is 1-D; an infinite SNR (``snr_profile`` where ``c1 = 0``)
    is above 1, and a NaN one is :class:`ValidationError`.
    """
    p = check_array("profile", profile, 1, nonfinite=None)
    if p.size == 0:
        raise ParameterError("empty profile")
    if np.isnan(p).any():
        raise ValidationError("NaN in profile")
    return float(np.mean(p < 1.0))
