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

``FAMILY_TABLE`` gives each family its constructor and the descriptor
fields it takes; a schedule of any other family cannot be built.  A
matrix header and the CLI's ``--schedule`` are read through it by
``make_schedule``, the CLI's ``--family`` and a sampler's default
schedule are built from it, and ``Schedule.descriptor`` writes exactly
those fields.

A time grid (``make_grid``) is a plain tuple of strictly decreasing
floats, largest first.  For the flow and continuous-VP families the
final entry is the terminal target time of the last integration step
(0.0 for flow, ``T_EPS`` for continuous VP); model evaluations happen at
earlier entries as each sampler dictates.  For vp-discrete the grid
holds the integer evaluation times down to 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, FormatError, ParameterError,
                     ValidationError, check_array, check_int, check_real)

VP_DISCRETE = "vp-discrete"
FLOW = "flow"
VP_CONTINUOUS = "vp-continuous"

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

    def __post_init__(self):
        if self.family not in FAMILY_TABLE:
            raise ParameterError(f"unknown schedule family: {self.family!r}")

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
        """Plain-data description used in matrix file headers: the family
        and its own fields (``FAMILY_TABLE``)."""
        names = FAMILY_TABLE[self.family].fields
        return {"family": self.family, **{n: getattr(self, n) for n in names}}


def make_vp_linear(beta_min: float = 1e-4, beta_max: float = 0.02,
                   T: int = 1000) -> Schedule:
    """Discrete VP schedule with betas linearly spaced over T steps.

    The cumulative product alpha_bar is accumulated in extended precision
    so that coarse-grid interval ratios stay accurate.
    """
    beta_min = check_real("beta_min", beta_min)
    beta_max = check_real("beta_max", beta_max)
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ParameterError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    T = check_int("T", T, 1)
    try:
        betas = np.linspace(beta_min, beta_max, T)
    except (ValueError, IndexError) as exc:
        # NumPy cannot size the array: ValueError past 2**63 bytes,
        # IndexError (an empty arange) for T near 2**63
        raise ParameterError(f"T={T} is too large: {exc}") from None
    alpha_bars = np.cumprod(1.0 - betas, dtype=np.longdouble)
    return Schedule(family=VP_DISCRETE, beta_min=beta_min, beta_max=beta_max,
                    T=T, betas=betas, alpha_bars=alpha_bars.astype(np.float64))


def make_flow() -> Schedule:
    """Flow-matching linear interpolation schedule on t in [0, 1]."""
    return Schedule(family=FLOW)


def make_vp_continuous(beta_min: float = 0.1, beta_max: float = 20.0) -> Schedule:
    """Continuous-time VP schedule on t in [0, 1]."""
    beta_min = check_real("beta_min", beta_min)
    beta_max = check_real("beta_max", beta_max)
    if not 0.0 < beta_min <= beta_max:
        raise ParameterError(f"need 0 < beta_min <= beta_max, "
                             f"got ({beta_min}, {beta_max})")
    return Schedule(family=VP_CONTINUOUS, beta_min=beta_min, beta_max=beta_max)


class Family(NamedTuple):
    """A schedule family: its constructor and the descriptor fields the
    constructor takes, in order."""
    make: Callable[..., Schedule]
    fields: tuple = ()


FAMILY_TABLE = {
    VP_DISCRETE: Family(make_vp_linear, ("beta_min", "beta_max", "T")),
    FLOW: Family(make_flow),
    VP_CONTINUOUS: Family(make_vp_continuous, ("beta_min", "beta_max")),
}

FAMILIES = tuple(FAMILY_TABLE)


def _field(name: str, value):
    """A descriptor field as its constructor takes it.

    A value that is not a real number (a bool is not one) raises
    :class:`FormatError`; a ``T`` that is not a finite integer raises
    :class:`ParameterError`, as the constructor does for a rate that is
    not a finite float (``check_real``).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise FormatError(f"schedule field {name} is not a number: {value!r}")
    if name == "T":
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
        raise ParameterError(f"schedule T must be an integer, got {value!r}")
    return value


def make_schedule(descriptor: dict) -> Schedule:
    """Rebuild a schedule from its ``descriptor()`` dictionary.

    A missing or ill-typed key raises :class:`FormatError`; a value out
    of range, a non-integer ``T`` included, raises
    :class:`ParameterError`.  Keys that are not the family's fields are
    ignored.
    """
    try:
        fam = descriptor["family"]
        if fam not in FAMILIES:
            raise ParameterError(f"unknown schedule family: {fam!r}")
        make, names = FAMILY_TABLE[fam]
        fields = {name: descriptor[name] for name in names}
    except KeyError as exc:
        raise FormatError(f"schedule is missing key {exc}") from None
    return make(**{name: _field(name, value) for name, value in fields.items()})


def _check_vp_discrete_time(s: Schedule, t) -> int:
    t = check_real("time", t, DomainError)
    ti = int(round(t))
    if abs(t - ti) > 1e-9:
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
    tf = check_real("time", t, DomainError)
    if not 0.0 <= tf <= 1.0:
        raise DomainError(f"{s.family} times lie in [0, 1], got {t}")
    if s.family == FLOW:
        return 1.0 - tf, tf
    return s.alpha(tf), s.sigma(tf)


RULES = ("linspace-trailing", "quadratic", "explicit")


def validate_decreasing(times, what: str = "grid times") -> None:
    for a, b in zip(times, times[1:]):
        if not b < a:
            raise ValidationError(f"{what} must strictly decrease: {a} -> {b}")


def make_grid(s: Schedule, n: int, rule: str = "linspace-trailing",
              explicit=None) -> tuple[float, ...]:
    """Build an inference time grid for the given schedule family.

    - vp-discrete + linspace-trailing: ``round(linspace(T - 1, 0, n))``.
    - vp-discrete + quadratic: linspace in ``sqrt(t)`` from
      ``sqrt(T - 1)`` down to 0, squared and rounded; a count whose
      rounded times collide is rejected.
    - flow + linspace-trailing: ``k / n`` for ``k = n .. 1`` plus the
      terminal 0.0 (n evaluation times, n + 1 entries).
    - flow + quadratic: ``linspace(1, 0, n + 1)`` squared.
    - vp-continuous + linspace-trailing: ``linspace(1, T_EPS, n)``.
    - vp-continuous + quadratic: linspace in ``sqrt(t)`` from 1 down to
      ``sqrt(T_EPS)``, squared — concentrating points near ``T_EPS``.
    - explicit: caller-provided 1-D times (``check_array``; a NaN or
      infinite time is ``DomainError``), each in the schedule's domain
      (``mixing_coeffs``); vp-discrete times are stored as the integers
      they name.  ``n`` is not read.

    Every other rule takes a positive integer ``n`` (``check_int``).
    Every rule's times are checked to strictly decrease as stored.
    """
    if rule not in RULES:
        raise ParameterError(f"unknown grid rule {rule!r}")
    if rule != "explicit":
        n = check_int("n", n, 1)
    if rule == "explicit":
        times = check_array("explicit times",
                            () if explicit is None else explicit, 1,
                            DomainError)
        if times.size == 0:
            raise ParameterError("explicit rule requires a time list")
        for t in times:
            mixing_coeffs(s, t)
        if s.family == VP_DISCRETE:
            times = [round(float(t)) for t in times]
    elif s.family == VP_DISCRETE:
        if n > s.T:
            raise ParameterError(f"n={n} exceeds T={s.T}")
        if rule == "quadratic":
            u = np.linspace(math.sqrt(s.T - 1), 0.0, n) ** 2
            times = tuple(dict.fromkeys(int(round(v)) for v in u))
            if len(times) < n:
                raise ParameterError(
                    f"quadratic rule collapses duplicate integer times at n={n}")
        else:
            times = [int(round(v)) for v in np.linspace(s.T - 1, 0, n)]
    elif s.family == FLOW:
        times = (np.linspace(1.0, 0.0, n + 1) ** 2 if rule == "quadratic"
                 else [k / n for k in range(n, 0, -1)] + [0.0])
    elif rule == "quadratic":  # vp-continuous
        times = np.linspace(1.0, math.sqrt(T_EPS), n) ** 2
    else:
        times = np.linspace(1.0, T_EPS, n)
    times = tuple(float(t) for t in times)
    validate_decreasing(times)
    return times
