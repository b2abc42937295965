"""Native iteration rules for the supported samplers.

Every sampler is written once against the :mod:`nimatrix.affine` element
algebra, in x0-prediction form: the model is a predictor ``y = f_t(x)``
estimating the clean signal.  The same code path executes concretely or
traces the sampler into its coefficient matrix.  :data:`KIND_TABLE`
holds each kind's schedule family, runner and evaluations per step:

- ``ddpm`` / ``ddim``: ancestral sampling on the discrete VP chain and
  its deterministic counterpart.
- ``flow-euler``: Euler integration of the linear-interpolation path.
- ``sde-euler`` / ``ode-euler``: Euler–Maruyama on the reverse VP SDE /
  Euler on the probability-flow ODE, with the score expressed through
  the x0-prediction.  These five kinds share one runner of the update
  ``x' = d*x + e*y + g*eps`` and differ only in its coefficients.
- ``dpm-solver-2s`` / ``dpm-solver-3s``: singlestep exponential-integrator
  solvers of order 2/3 in the noise-prediction parameterization.
  ``dpmpp-2s`` / ``dpmpp-3s`` are their data-prediction duals: swapping
  alpha with sigma and the log-SNR step ``h`` with ``-h`` turns one into
  the other, so each order has one step for both (:func:`_dpm_form`).
- ``deis-1`` / ``deis-2`` / ``deis-3``: polynomial exponential-integrator
  (Adams–Bashforth style) steps with quadrature-computed weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from scipy.integrate import quad

from . import schedule as sched
from .affine import RunContext, lin_combine
from .errors import NumericError, ParameterError
from .schedule import (FLOW, VP_CONTINUOUS, VP_DISCRETE, Schedule, TimeGrid,
                       mixing_coeffs)

#: Evaluation-stencil size per DEIS kind: the named order k uses the
#: current evaluation plus up to k previous ones (ramping up at the
#: start of the run).  ``deis-1`` degenerates to DDIM.
DEIS_POINTS = {"deis-1": 1, "deis-2": 2, "deis-3": 4}


@dataclass(frozen=True)
class SamplerSpec:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown sampler kind {self.kind!r}")


@dataclass(frozen=True)
class StepCoefficients:
    """One first-order update ``x' = d*x + e*y + g*eps``."""

    d: float
    e: float
    g: float = 0.0


# ---------------------------------------------------------------------
# First-order step coefficients (discrete VP and flow)
# ---------------------------------------------------------------------

def _vp_step(s: Schedule, t, t_prev):
    """Checked integer times and alpha_bars ``(t, t_prev, ab, ab_prev)``
    of one vp-discrete step."""
    if s.family != VP_DISCRETE:
        raise ParameterError("requires a vp-discrete schedule")
    ti = sched._check_vp_discrete_time(s, t)
    tp = sched._check_vp_discrete_time(s, t_prev)
    if not tp < ti:
        raise ParameterError(f"need t_prev < t, got {t_prev} >= {t}")
    ab = float(s.alpha_bars[ti])
    if ab >= 1.0:
        raise NumericError(f"alpha_bar({ti}) = 1 makes the step singular")
    return ti, tp, ab, float(s.alpha_bars[tp])


def ddpm_step_coeffs(s: Schedule, t, t_prev) -> StepCoefficients:
    """Ancestral-sampling posterior step between two grid times.

    The per-interval quantities are the aggregate ``alpha`` ratio
    ``alpha_bar(t) / alpha_bar(t_prev)`` and its complement, so coarse
    grids reuse the canonical fine-grained chain exactly.
    """
    _, _, ab, abp = _vp_step(s, t, t_prev)
    a_int = ab / abp
    b_int = 1.0 - a_int
    d = math.sqrt(a_int) * (1.0 - abp) / (1.0 - ab)
    e = math.sqrt(abp) * b_int / (1.0 - ab)
    g = math.sqrt((1.0 - abp) / (1.0 - ab) * b_int)
    return StepCoefficients(d=d, e=e, g=g)


def ddim_step_coeffs(s: Schedule, t, t_prev) -> StepCoefficients:
    _, _, ab, abp = _vp_step(s, t, t_prev)
    d = math.sqrt(1.0 - abp) / math.sqrt(1.0 - ab)
    e = math.sqrt(abp) - d * math.sqrt(ab)
    return StepCoefficients(d=d, e=e, g=0.0)


def flow_euler_step_coeffs(t: float, t_prev: float) -> StepCoefficients:
    if not 0.0 <= t_prev <= t <= 1.0:
        raise ParameterError(f"need 0 <= t_prev <= t <= 1, got ({t}, {t_prev})")
    if t == 0.0:
        raise NumericError("flow Euler step undefined at t = 0")
    d = t_prev / t
    return StepCoefficients(d=d, e=1.0 - d, g=0.0)


def _vp_euler_step_coeffs(s: Schedule, t, t_prev,
                          stochastic: bool) -> StepCoefficients:
    """Euler–Maruyama on the reverse VP SDE (``stochastic``) or Euler on
    the probability-flow ODE, with the score ``s0 * y + st * x``."""
    ti, tp, ab, _ = _vp_step(s, t, t_prev)
    if not ab > 0.0:
        raise NumericError(f"score undefined at alpha_bar({ti}) = {ab}")
    s0, st = math.sqrt(ab) / (1.0 - ab), -1.0 / (1.0 - ab)
    b = float(s.betas[ti]) * float(ti - tp)
    if stochastic:
        return StepCoefficients(d=1.0 + 0.5 * b + b * st, e=b * s0,
                                g=math.sqrt(b))
    return StepCoefficients(d=1.0 + 0.5 * b + 0.5 * b * st, e=0.5 * b * s0)


# ---------------------------------------------------------------------
# Prediction-type conversions
# ---------------------------------------------------------------------

def x0_from_eps(s: Schedule, t, x, eps_hat):
    c0, c1 = mixing_coeffs(s, t)
    if c0 == 0.0:
        raise NumericError("c0 = 0: cannot convert eps-prediction to x0")
    return lin_combine([(1.0 / c0, x), (-c1 / c0, eps_hat)])


def eps_from_x0(s: Schedule, t, x, x0_hat):
    c0, c1 = mixing_coeffs(s, t)
    if c1 == 0.0:
        raise NumericError("c1 = 0: cannot convert x0-prediction to eps")
    return lin_combine([(1.0 / c1, x), (-c0 / c1, x0_hat)])


# ---------------------------------------------------------------------
# Native runs
# ---------------------------------------------------------------------

def _run_first_order(step, spec, s, grid, ctx):
    times = [float(t) for t in grid]
    x = ctx.fresh_noise((times[0], 0))
    for t, tp in zip(times, times[1:]):
        y = ctx.apply_model(t, x)
        c = step(s, t, tp)
        terms = [(c.d, x), (c.e, y)]
        if c.g:
            terms.append((c.g, ctx.fresh_noise((tp, 0))))
        x = lin_combine(terms)
    if s.family == VP_DISCRETE:
        # A final evaluation at the smallest time gives the sample.
        return ctx.apply_model(times[-1], x)
    return x


def _dpm_form(spec, s):
    """Scales ``q``, ``p``, step sign and prediction map ``z`` of a
    DPM-Solver step: noise prediction over ``h``, or for ++ the
    x0-prediction over ``-h`` with alpha and sigma swapped."""
    if spec.kind.startswith("dpmpp"):
        return s.sigma, s.alpha, -1.0, lambda t, x, y: y
    return s.alpha, s.sigma, 1.0, partial(eps_from_x0, s)


def _run_dpm_2s(spec, s, grid, ctx):
    r1 = float(spec.options.get("r1", 0.5))
    q, p, sign, z = _dpm_form(spec, s)
    times = list(grid)
    x = ctx.fresh_noise((times[0], 0))
    for t, tn in zip(times, times[1:]):
        lt, ln = s.log_snr(t), s.log_snr(tn)
        h = ln - lt
        t1 = s.t_from_log_snr(lt + r1 * h)
        z0 = z(t, x, ctx.apply_model(t, x))
        u = lin_combine([(q(t1) / q(t), x),
                         (-p(t1) * math.expm1(sign * r1 * h), z0)])
        d1 = lin_combine([(1.0, z(t1, u, ctx.apply_model(t1, u))),
                          (-1.0, z0)])
        x = lin_combine([(q(tn) / q(t), x),
                         (-p(tn) * math.expm1(sign * h), z0),
                         (-p(tn) * math.expm1(sign * h) / (2.0 * r1), d1)])
    return x


def _run_dpm_3s(spec, s, grid, ctx):
    r1 = float(spec.options.get("r1", 1.0 / 3.0))
    r2 = float(spec.options.get("r2", 2.0 / 3.0))
    q, p, sign, z = _dpm_form(spec, s)
    # Sign of the difference-correction terms; an option of the ++ variant
    # whose default reproduces the reference coefficient tables.
    c = sign * (float(spec.options.get("correction_sign", -1.0))
                if sign < 0 else -1.0)
    times = list(grid)
    x = ctx.fresh_noise((times[0], 0))
    for t, tn in zip(times, times[1:]):
        lt, ln = s.log_snr(t), s.log_snr(tn)
        h = ln - lt
        t1 = s.t_from_log_snr(lt + r1 * h)
        t2 = s.t_from_log_snr(lt + r2 * h)
        z0 = z(t, x, ctx.apply_model(t, x))
        u1 = lin_combine([(q(t1) / q(t), x),
                          (-p(t1) * math.expm1(sign * r1 * h), z0)])
        d1 = lin_combine([(1.0, z(t1, u1, ctx.apply_model(t1, u1))),
                          (-1.0, z0)])
        u2 = lin_combine([
            (q(t2) / q(t), x),
            (-p(t2) * math.expm1(sign * r2 * h), z0),
            (c * p(t2) * (r2 / r1)
             * (math.expm1(sign * r2 * h) / (sign * r2 * h) - 1.0), d1)])
        d2 = lin_combine([(1.0, z(t2, u2, ctx.apply_model(t2, u2))),
                          (-1.0, z0)])
        x = lin_combine([
            (q(tn) / q(t), x),
            (-p(tn) * math.expm1(sign * h), z0),
            (c * (p(tn) / r2) * (math.expm1(sign * h) / (sign * h) - 1.0),
             d2)])
    return x


def deis_weights(s: Schedule, eval_times, t: float, t_next: float):
    """Quadrature weights for one polynomial exponential-integrator step.

    ``eval_times`` are the stencil times (oldest first, current last);
    the weight for stencil point j integrates the decay kernel times the
    j-th Lagrange basis polynomial over ``[t, t_next]``.
    """
    ts = list(eval_times)
    a_next = s.alpha(t_next)
    weights = []
    for j in range(len(ts)):
        def integrand(tau, j=j):
            p = 1.0
            for k, tk in enumerate(ts):
                if k != j:
                    p *= (tau - tk) / (ts[j] - tk)
            return (a_next / s.alpha(tau)) * (s.beta(tau) / (2.0 * s.sigma(tau))) * p
        w, err = quad(integrand, t, t_next, epsabs=1e-13, epsrel=1e-12,
                      limit=200)
        if not math.isfinite(w) or abs(err) > 1e-8:
            raise NumericError(
                f"quadrature did not converge on [{t}, {t_next}] "
                f"(weight {w}, error estimate {err})")
        weights.append(w)
    return weights


def _run_deis(spec, s, grid, ctx):
    points = int(spec.options.get("points", DEIS_POINTS[spec.kind]))
    if points < 1:
        raise ParameterError(f"need points >= 1, got {points}")
    times = list(grid)
    x = ctx.fresh_noise((times[0], 0))
    history: list = []  # (time, eps-expression), newest last
    for t, tn in zip(times, times[1:]):
        y = ctx.apply_model(t, x)
        history.append((t, eps_from_x0(s, t, x, y)))
        use = history[-min(len(history), points):]
        ws = deis_weights(s, [tj for tj, _ in use], t, tn)
        terms = [(s.alpha(tn) / s.alpha(t), x)]
        terms.extend((w, ej) for w, (_, ej) in zip(ws, use))
        x = lin_combine(terms)
    return x


# ---------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------

class Kind(NamedTuple):
    family: str
    run: Callable  # (spec, schedule, grid, ctx) -> sample or terminal row
    evals_per_step: int = 1


KIND_TABLE = {
    "ddpm": Kind(VP_DISCRETE, partial(_run_first_order, ddpm_step_coeffs)),
    "ddim": Kind(VP_DISCRETE, partial(_run_first_order, ddim_step_coeffs)),
    "flow-euler": Kind(FLOW, partial(
        _run_first_order, lambda s, t, tp: flow_euler_step_coeffs(t, tp))),
    "sde-euler": Kind(VP_DISCRETE, partial(
        _run_first_order, partial(_vp_euler_step_coeffs, stochastic=True))),
    "ode-euler": Kind(VP_DISCRETE, partial(
        _run_first_order, partial(_vp_euler_step_coeffs, stochastic=False))),
    "dpm-solver-2s": Kind(VP_CONTINUOUS, _run_dpm_2s, 2),
    "dpm-solver-3s": Kind(VP_CONTINUOUS, _run_dpm_3s, 3),
    "dpmpp-2s": Kind(VP_CONTINUOUS, _run_dpm_2s, 2),
    "dpmpp-3s": Kind(VP_CONTINUOUS, _run_dpm_3s, 3),
    "deis-1": Kind(VP_CONTINUOUS, _run_deis),
    "deis-2": Kind(VP_CONTINUOUS, _run_deis),
    "deis-3": Kind(VP_CONTINUOUS, _run_deis),
}

KINDS = tuple(KIND_TABLE)


def default_schedule(spec: SamplerSpec) -> Schedule:
    return {VP_DISCRETE: sched.make_vp_linear, FLOW: sched.make_flow,
            VP_CONTINUOUS: sched.make_vp_continuous,
            }[KIND_TABLE[spec.kind].family]()


def default_grid(spec: SamplerSpec, s: Schedule, n_evals: int,
                 rule: str | None = None) -> TimeGrid:
    """The grid giving exactly ``n_evals`` model evaluations, spaced by
    the ``make_grid`` rule: by default quadratic (dense near the terminal
    time) for DEIS kinds and linspace-trailing for every other kind."""
    kind = KIND_TABLE[spec.kind]
    if rule is None:
        rule = "quadratic" if spec.kind in DEIS_POINTS else "linspace-trailing"
    if n_evals < 1 or n_evals % kind.evals_per_step:
        raise ParameterError(f"{spec.kind} needs a positive evaluation count "
                             f"divisible by {kind.evals_per_step}")
    if kind.family == VP_CONTINUOUS:  # n grid points span n - 1 steps
        n_evals = n_evals // kind.evals_per_step + 1
    return sched.make_grid(s, n_evals, rule)


def run_native(spec: SamplerSpec, s: Schedule, grid: TimeGrid,
               ctx: RunContext):
    """Execute (or trace) the sampler over the grid; returns the sample.

    In trace mode the per-evaluation input rows accumulate in
    ``ctx.records`` and the returned element is the terminal-row
    expression.  In concrete mode the returned element is the sample.
    """
    kind = KIND_TABLE[spec.kind]
    if s.family != kind.family:
        raise ParameterError(f"{spec.kind} requires a {kind.family} schedule")
    return kind.run(spec, s, grid, ctx)
