"""Mixing-law schedules and inference time grids.

A schedule maps a time value to the pair ``(c0, c1)`` of signal and noise
amplitudes of the forward process state ``x_t = c0 * x0 + c1 * eps``.
Three families are provided:

- ``vp-discrete``: variance-preserving chain with a linear per-step beta
  ramp over ``T`` integer steps; ``c0 = sqrt(alpha_bar_t)`` and
  ``c1 = sqrt(1 - alpha_bar_t)``.
- ``flow``: linear-interpolation (flow matching) path with ``c0 = 1 - t``
  and ``c1 = t`` on ``t in [0, 1]``.
- ``vp-continuous``: continuous-time variance-preserving process with
  ``log alpha(t) = -t^2 (beta_max - beta_min)/4 - t beta_min/2`` on
  ``t in [0, 1]``; used by the exponential-integrator solvers.

VP families satisfy ``c0^2 + c1^2 = 1``; the flow family satisfies
``c0 + c1 = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, ParameterError, ValidationError

VP_DISCRETE = "vp-discrete"
FLOW = "flow"
VP_CONTINUOUS = "vp-continuous"

FAMILIES = (VP_DISCRETE, FLOW, VP_CONTINUOUS)

#: Terminal time of the continuous-VP grids, which start at 1.0.
T_EPS = 0.001


@dataclass(frozen=True)
class Schedule:
    """Immutable mixing law; construct via the ``make_*`` helpers."""

    family: str
    beta_min: float = 0.0
    beta_max: float = 0.0
    T: int = 0
    betas: np.ndarray | None = field(default=None, repr=False, compare=False)
    alpha_bars: np.ndarray | None = field(default=None, repr=False, compare=False)

    # ----- continuous-VP helpers -------------------------------------
    def log_alpha(self, t: float) -> float:
        """log c0(t) for the vp-continuous family."""
        bd = self.beta_max - self.beta_min
        return -0.25 * t * t * bd - 0.5 * t * self.beta_min

    def alpha(self, t: float) -> float:
        return math.exp(self.log_alpha(t))

    def sigma(self, t: float) -> float:
        a = self.alpha(t)
        return math.sqrt(max(1.0 - a * a, 0.0))

    def beta(self, t: float) -> float:
        """Instantaneous rate beta(t) for the vp-continuous family."""
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def log_snr(self, t: float) -> float:
        """Half log-SNR, lambda(t) = log(alpha/sigma); decreasing in t."""
        s = self.sigma(t)
        if s <= 0.0:
            raise DomainError(f"log-SNR undefined at t={t} (sigma=0)")
        return self.log_alpha(t) - math.log(s)

    def t_from_log_snr(self, lam: float) -> float:
        """Inverse of log_snr; closed form via the quadratic in t."""
        la = -0.5 * math.log1p(math.exp(-2.0 * lam))
        a = 0.25 * (self.beta_max - self.beta_min)
        b = 0.5 * self.beta_min
        if a == 0.0:
            return -la / b
        return (-b + math.sqrt(b * b - 4.0 * a * la)) / (2.0 * a)

    # ----- serialization ---------------------------------------------
    def descriptor(self) -> dict:
        """Plain-data description used in matrix file headers."""
        if self.family == FLOW:
            return {"family": FLOW}
        return {
            "family": self.family,
            "beta_min": self.beta_min,
            "beta_max": self.beta_max,
            "T": self.T,
        }


def make_vp_linear(beta_min: float = 1e-4, beta_max: float = 0.02,
                   T: int = 1000) -> Schedule:
    """Discrete VP schedule with betas linearly spaced over T steps.

    The cumulative product alpha_bar is accumulated in extended precision
    so that coarse-grid interval ratios stay accurate.
    """
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ParameterError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    if T < 1:
        raise ParameterError(f"need T >= 1, got {T}")
    betas = np.linspace(beta_min, beta_max, T)
    alpha_bars = np.cumprod(1.0 - betas, dtype=np.longdouble)
    return Schedule(family=VP_DISCRETE, beta_min=beta_min, beta_max=beta_max,
                    T=T, betas=betas, alpha_bars=alpha_bars.astype(np.float64))


def make_flow() -> Schedule:
    """Flow-matching linear interpolation schedule on t in [0, 1]."""
    return Schedule(family=FLOW)


def make_vp_continuous(beta_min: float = 0.1, beta_max: float = 20.0) -> Schedule:
    """Continuous-time VP schedule on t in [0, 1]."""
    if not (0.0 < beta_min <= beta_max < math.inf):
        raise ParameterError(f"need 0 < beta_min <= beta_max < inf, "
                             f"got ({beta_min}, {beta_max})")
    return Schedule(family=VP_CONTINUOUS, beta_min=beta_min, beta_max=beta_max)


def make_schedule(descriptor: dict) -> Schedule:
    """Rebuild a schedule from its ``descriptor()`` dictionary.

    A missing or ill-typed key raises :class:`FormatError`; a value out
    of range raises :class:`ParameterError`, as from the ``make_*``
    helpers.
    """
    if "family" not in descriptor:
        raise FormatError("schedule is missing key 'family'")
    fam = descriptor["family"]
    if fam == FLOW:
        return make_flow()
    if fam not in (VP_DISCRETE, VP_CONTINUOUS):
        raise ParameterError(f"unknown schedule family: {fam!r}")
    try:
        bmin = float(descriptor["beta_min"])
        bmax = float(descriptor["beta_max"])
        T = int(descriptor["T"]) if fam == VP_DISCRETE else None
    except KeyError as exc:
        raise FormatError(f"{fam} schedule is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed {fam} schedule: {exc}") from exc
    if fam == VP_DISCRETE:
        return make_vp_linear(bmin, bmax, T)
    return make_vp_continuous(bmin, bmax)


def _check_vp_discrete_time(s: Schedule, t) -> int:
    if not math.isfinite(float(t)):
        raise DomainError(f"vp-discrete times must be finite, got {t}")
    ti = int(round(float(t)))
    if abs(float(t) - ti) > 1e-9:
        raise DomainError(f"vp-discrete times must be integers, got {t}")
    if not 0 <= ti < s.T:
        raise DomainError(f"time {ti} outside [0, {s.T - 1}]")
    return ti


def mixing_coeffs(s: Schedule, t) -> tuple[float, float]:
    """Return (c0, c1) — the signal and noise amplitudes at time t."""
    if s.family == VP_DISCRETE:
        ti = _check_vp_discrete_time(s, t)
        ab = float(s.alpha_bars[ti])
        return math.sqrt(ab), math.sqrt(1.0 - ab)
    if s.family == FLOW:
        tf = float(t)
        if not 0.0 <= tf <= 1.0:
            raise DomainError(f"flow times lie in [0, 1], got {t}")
        return 1.0 - tf, tf
    if s.family == VP_CONTINUOUS:
        tf = float(t)
        if not 0.0 <= tf <= 1.0:
            raise DomainError(f"vp-continuous times lie in [0, 1], got {t}")
        return s.alpha(tf), s.sigma(tf)
    raise ParameterError(f"unknown family {s.family!r}")


RULES = ("linspace-trailing", "quadratic", "explicit")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly decreasing inference times, largest first.

    For the flow and continuous-VP families the final entry is the
    terminal target time of the last integration step (0.0 for flow,
    ``T_EPS`` for continuous VP); model evaluations happen at earlier
    entries as each sampler dictates.  For vp-discrete the grid holds
    the integer evaluation times down to 0.
    """

    times: tuple
    rule: str
    family: str

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return iter(self.times)

    def __getitem__(self, i):
        return self.times[i]


def validate_decreasing(times, what: str = "grid times") -> None:
    for a, b in zip(times, times[1:]):
        if not b < a:
            raise ValidationError(f"{what} must strictly decrease: {a} -> {b}")


def make_grid(s: Schedule, n: int, rule: str = "linspace-trailing",
              explicit=None) -> TimeGrid:
    """Build an inference time grid for the given schedule family.

    - vp-discrete + linspace-trailing: ``round(linspace(T - 1, 0, n))``.
    - flow + linspace-trailing: ``k / n`` for ``k = n .. 1`` plus the
      terminal 0.0 (n evaluation times, n + 1 entries).
    - vp-continuous + linspace-trailing: ``linspace(1, T_EPS, n)``.
    - quadratic (continuous families): linspace in ``sqrt(t)`` from 1
      down to ``sqrt(T_EPS)``, squared — concentrating points near
      ``T_EPS``.
    - explicit: caller-provided list, strictly decreasing, each time in
      the schedule's domain (``mixing_coeffs``); vp-discrete times are
      stored as the integers they name.
    """
    if rule not in RULES:
        raise ParameterError(f"unknown grid rule {rule!r}")
    if rule == "explicit":
        if explicit is None or len(explicit) == 0:
            raise ParameterError("explicit rule requires a time list")
        times = tuple(float(t) for t in explicit)
        validate_decreasing(times)
        for t in times:
            mixing_coeffs(s, t)
        if s.family == VP_DISCRETE:
            times = tuple(float(round(t)) for t in times)
        return TimeGrid(times=times, rule=rule, family=s.family)
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if s.family == VP_DISCRETE:
        if n > s.T:
            raise ParameterError(f"n={n} exceeds T={s.T}")
        if rule == "quadratic":
            u = np.linspace(math.sqrt(s.T - 1), 0.0, n) ** 2
            times = tuple(dict.fromkeys(int(round(v)) for v in u))
            if len(times) < n:
                raise ParameterError(
                    f"quadratic rule collapses duplicate integer times at n={n}")
        else:
            times = tuple(int(round(v)) for v in np.linspace(s.T - 1, 0, n))
        validate_decreasing(times)
        return TimeGrid(times=tuple(float(t) for t in times), rule=rule,
                        family=s.family)
    if s.family == FLOW:
        if rule == "quadratic":
            times = tuple(float(v) for v in np.linspace(1.0, 0.0, n + 1) ** 2)
        else:
            times = tuple(k / n for k in range(n, 0, -1)) + (0.0,)
        validate_decreasing(times)
        return TimeGrid(times=times, rule=rule, family=s.family)
    # vp-continuous
    if rule == "quadratic":
        u = np.linspace(1.0, math.sqrt(T_EPS), n)
        times = tuple(float(v) for v in u ** 2)
    else:
        times = tuple(float(v) for v in np.linspace(1.0, T_EPS, n))
    validate_decreasing(times)
    return TimeGrid(times=times, rule=rule, family=s.family)
