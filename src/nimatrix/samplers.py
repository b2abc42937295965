"""Native iteration rules for the supported samplers.

Every sampler is written once against the :mod:`nimatrix.affine` element
algebra, in x0-prediction form: the model is a predictor ``y = f_t(x)``
estimating the clean signal.  The same code path executes concretely or
traces the sampler into its coefficient matrix.

Supported kinds:

- ``ddpm``: ancestral sampling on the discrete VP chain (stochastic).
- ``ddim``: deterministic counterpart of the above.
- ``flow-euler``: Euler integration of the linear-interpolation path.
- ``sde-euler`` / ``ode-euler``: Euler–Maruyama on the reverse VP SDE /
  Euler on the probability-flow ODE, with the score expressed through
  the x0-prediction.
- ``dpm-solver-2s`` / ``dpm-solver-3s``: singlestep exponential-integrator
  solvers of order 2/3 in the noise-prediction parameterization.
- ``dpmpp-2s`` / ``dpmpp-3s``: the data-prediction variants.
- ``deis-1`` / ``deis-2`` / ``deis-3``: polynomial exponential-integrator
  (Adams–Bashforth style) steps with quadrature-computed weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.integrate import quad

from . import schedule as sched
from .affine import RunContext, lin_combine
from .errors import NumericError, ParameterError
from .schedule import Schedule, TimeGrid, mixing_coeffs

KINDS = (
    "ddpm", "ddim", "flow-euler", "sde-euler", "ode-euler",
    "dpm-solver-2s", "dpm-solver-3s", "dpmpp-2s", "dpmpp-3s",
    "deis-1", "deis-2", "deis-3",
)

_VP_DISCRETE_KINDS = ("ddpm", "ddim", "sde-euler", "ode-euler")
_CONTINUOUS_KINDS = ("dpm-solver-2s", "dpm-solver-3s", "dpmpp-2s",
                     "dpmpp-3s", "deis-1", "deis-2", "deis-3")

#: Evaluation-stencil size per DEIS kind: the named order k uses the
#: current evaluation plus up to k previous ones (ramping up at the
#: start of the run).  ``deis-1`` degenerates to DDIM.
DEIS_POINTS = {"deis-1": 1, "deis-2": 2, "deis-3": 4}

#: Model evaluations per step of the singlestep solvers (one otherwise).
_STAGES = {"dpm-solver-2s": 2, "dpmpp-2s": 2, "dpm-solver-3s": 3,
           "dpmpp-3s": 3}


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

def _alpha_bars(s: Schedule, t, t_prev):
    if s.family != sched.VP_DISCRETE:
        raise ParameterError("requires a vp-discrete schedule")
    ti, tp = int(round(float(t))), int(round(float(t_prev)))
    if not tp < ti:
        raise ParameterError(f"need t_prev < t, got {t_prev} >= {t}")
    ab = float(s.alpha_bars[ti])
    abp = float(s.alpha_bars[tp])
    if ab >= 1.0:
        raise NumericError(f"alpha_bar({ti}) = 1 makes the step singular")
    return ab, abp


def ddpm_step_coeffs(s: Schedule, t, t_prev) -> StepCoefficients:
    """Ancestral-sampling posterior step between two grid times.

    The per-interval quantities are the aggregate ``alpha`` ratio
    ``alpha_bar(t) / alpha_bar(t_prev)`` and its complement, so coarse
    grids reuse the canonical fine-grained chain exactly.
    """
    ab, abp = _alpha_bars(s, t, t_prev)
    a_int = ab / abp
    b_int = 1.0 - a_int
    d = math.sqrt(a_int) * (1.0 - abp) / (1.0 - ab)
    e = math.sqrt(abp) * b_int / (1.0 - ab)
    g = math.sqrt((1.0 - abp) / (1.0 - ab) * b_int)
    return StepCoefficients(d=d, e=e, g=g)


def ddim_step_coeffs(s: Schedule, t, t_prev) -> StepCoefficients:
    ab, abp = _alpha_bars(s, t, t_prev)
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


def _score_coeffs(s: Schedule, t):
    """Score as S0 * x0_hat + St * x for the discrete VP chain."""
    ti = int(round(float(t)))
    ab = float(s.alpha_bars[ti])
    if not 0.0 < ab < 1.0:
        raise NumericError(f"score undefined at alpha_bar({ti}) = {ab}")
    return math.sqrt(ab) / (1.0 - ab), -1.0 / (1.0 - ab)


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
# Default schedules and grids per sampler kind
# ---------------------------------------------------------------------

def default_schedule(spec: SamplerSpec) -> Schedule:
    if spec.kind in _VP_DISCRETE_KINDS:
        return sched.make_vp_linear()
    if spec.kind == "flow-euler":
        return sched.make_flow()
    return sched.make_vp_continuous()


def default_grid(spec: SamplerSpec, s: Schedule, n_evals: int,
                 rule: str | None = None) -> TimeGrid:
    """The grid giving exactly ``n_evals`` model evaluations, spaced by
    the ``make_grid`` rule: by default quadratic (dense near the terminal
    time) for DEIS kinds and linspace-trailing for every other kind."""
    kind = spec.kind
    if rule is None:
        rule = "quadratic" if kind in DEIS_POINTS else "linspace-trailing"
    if kind in _VP_DISCRETE_KINDS or kind == "flow-euler":
        return sched.make_grid(s, n_evals, rule)
    stages = _STAGES.get(kind, 1)
    if n_evals % stages:
        raise ParameterError(
            f"{kind} needs an evaluation count divisible by {stages}")
    return sched.make_grid(s, n_evals // stages + 1, rule)


# ---------------------------------------------------------------------
# Native runs
# ---------------------------------------------------------------------

def _run_first_order_vp(spec, s, grid, ctx):
    times = [int(round(t)) for t in grid]
    x = ctx.fresh_noise((float(times[0]), 0))
    for t, tp in zip(times, times[1:]):
        y = ctx.apply_model(t, x)
        if spec.kind == "ddpm":
            c = ddpm_step_coeffs(s, t, tp)
        elif spec.kind == "ddim":
            c = ddim_step_coeffs(s, t, tp)
        elif spec.kind in ("sde-euler", "ode-euler"):
            dt = float(t - tp)
            b = float(s.betas[t]) * dt
            s0, st = _score_coeffs(s, t)
            if spec.kind == "sde-euler":
                c = StepCoefficients(d=1.0 + 0.5 * b + b * st, e=b * s0,
                                     g=math.sqrt(b))
            else:
                c = StepCoefficients(d=1.0 + 0.5 * b + 0.5 * b * st,
                                     e=0.5 * b * s0, g=0.0)
        terms = [(c.d, x), (c.e, y)]
        if c.g:
            terms.append((c.g, ctx.fresh_noise((float(tp), 0))))
        x = lin_combine(terms)
    # Final evaluation at the smallest grid time; its output is the sample.
    return ctx.apply_model(times[-1], x)


def _run_flow_euler(spec, s, grid, ctx):
    times = list(grid)
    x = ctx.fresh_noise((times[0], 0))
    for t, tp in zip(times, times[1:]):
        c = flow_euler_step_coeffs(t, tp)
        y = ctx.apply_model(t, x)
        x = lin_combine([(c.d, x), (c.e, y)])
    return x


def _eps_hat(s, t, x, y):
    a, sg = s.alpha(t), s.sigma(t)
    return lin_combine([(1.0 / sg, x), (-a / sg, y)])


def _run_dpm_2s(spec, s, grid, ctx, plusplus: bool):
    r1 = float(spec.options.get("r1", 0.5))
    times = list(grid)
    x = ctx.fresh_noise((times[0], 0))
    for t, tn in zip(times, times[1:]):
        lt, ln = s.log_snr(t), s.log_snr(tn)
        h = ln - lt
        t1 = s.t_from_log_snr(lt + r1 * h)
        y0 = ctx.apply_model(t, x)
        if plusplus:
            u = lin_combine([(s.sigma(t1) / s.sigma(t), x),
                             (-s.alpha(t1) * math.expm1(-r1 * h), y0)])
            y1 = ctx.apply_model(t1, u)
            d1 = lin_combine([(1.0, y1), (-1.0, y0)])
            x = lin_combine([(s.sigma(tn) / s.sigma(t), x),
                             (-s.alpha(tn) * math.expm1(-h), y0),
                             (-s.alpha(tn) * math.expm1(-h) / (2.0 * r1), d1)])
        else:
            e0 = _eps_hat(s, t, x, y0)
            u = lin_combine([(s.alpha(t1) / s.alpha(t), x),
                             (-s.sigma(t1) * math.expm1(r1 * h), e0)])
            y1 = ctx.apply_model(t1, u)
            e1 = _eps_hat(s, t1, u, y1)
            d1 = lin_combine([(1.0, e1), (-1.0, e0)])
            x = lin_combine([(s.alpha(tn) / s.alpha(t), x),
                             (-s.sigma(tn) * math.expm1(h), e0),
                             (-s.sigma(tn) * math.expm1(h) / (2.0 * r1), d1)])
    return x


def _run_dpm_3s(spec, s, grid, ctx, plusplus: bool):
    r1 = float(spec.options.get("r1", 1.0 / 3.0))
    r2 = float(spec.options.get("r2", 2.0 / 3.0))
    # Sign applied to the difference-correction terms of the ++ variant;
    # the default reproduces the reference coefficient tables.
    csign = float(spec.options.get("correction_sign", -1.0))
    times = list(grid)
    x = ctx.fresh_noise((times[0], 0))
    for t, tn in zip(times, times[1:]):
        lt, ln = s.log_snr(t), s.log_snr(tn)
        h = ln - lt
        t1 = s.t_from_log_snr(lt + r1 * h)
        t2 = s.t_from_log_snr(lt + r2 * h)
        y0 = ctx.apply_model(t, x)
        if plusplus:
            u1 = lin_combine([(s.sigma(t1) / s.sigma(t), x),
                              (-s.alpha(t1) * math.expm1(-r1 * h), y0)])
            y1 = ctx.apply_model(t1, u1)
            d1 = lin_combine([(1.0, y1), (-1.0, y0)])
            u2 = lin_combine([
                (s.sigma(t2) / s.sigma(t), x),
                (-s.alpha(t2) * math.expm1(-r2 * h), y0),
                (csign * s.alpha(t2) * (r2 / r1)
                 * (math.expm1(-r2 * h) / (r2 * h) + 1.0), d1)])
            y2 = ctx.apply_model(t2, u2)
            d2 = lin_combine([(1.0, y2), (-1.0, y0)])
            x = lin_combine([
                (s.sigma(tn) / s.sigma(t), x),
                (-s.alpha(tn) * math.expm1(-h), y0),
                (csign * (s.alpha(tn) / r2)
                 * (math.expm1(-h) / h + 1.0), d2)])
        else:
            e0 = _eps_hat(s, t, x, y0)
            u1 = lin_combine([(s.alpha(t1) / s.alpha(t), x),
                              (-s.sigma(t1) * math.expm1(r1 * h), e0)])
            y1 = ctx.apply_model(t1, u1)
            e1 = _eps_hat(s, t1, u1, y1)
            d1 = lin_combine([(1.0, e1), (-1.0, e0)])
            u2 = lin_combine([
                (s.alpha(t2) / s.alpha(t), x),
                (-s.sigma(t2) * math.expm1(r2 * h), e0),
                (-s.sigma(t2) * (r2 / r1)
                 * (math.expm1(r2 * h) / (r2 * h) - 1.0), d1)])
            y2 = ctx.apply_model(t2, u2)
            e2 = _eps_hat(s, t2, u2, y2)
            d2 = lin_combine([(1.0, e2), (-1.0, e0)])
            x = lin_combine([
                (s.alpha(tn) / s.alpha(t), x),
                (-s.sigma(tn) * math.expm1(h), e0),
                (-(s.sigma(tn) / r2) * (math.expm1(h) / h - 1.0), d2)])
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
        history.append((t, _eps_hat(s, t, x, y)))
        use = history[-min(len(history), points):]
        ws = deis_weights(s, [tj for tj, _ in use], t, tn)
        terms = [(s.alpha(tn) / s.alpha(t), x)]
        terms.extend((w, ej) for w, (_, ej) in zip(ws, use))
        x = lin_combine(terms)
    return x


def run_native(spec: SamplerSpec, s: Schedule, grid: TimeGrid,
               ctx: RunContext):
    """Execute (or trace) the sampler over the grid; returns the sample.

    In trace mode the per-evaluation input rows accumulate in
    ``ctx.records`` and the returned element is the terminal-row
    expression.  In concrete mode the returned element is the sample.
    """
    kind = spec.kind
    if kind in _VP_DISCRETE_KINDS:
        if s.family != sched.VP_DISCRETE:
            raise ParameterError(f"{kind} requires a vp-discrete schedule")
        return _run_first_order_vp(spec, s, grid, ctx)
    if kind == "flow-euler":
        if s.family != sched.FLOW:
            raise ParameterError("flow-euler requires a flow schedule")
        return _run_flow_euler(spec, s, grid, ctx)
    if s.family != sched.VP_CONTINUOUS:
        raise ParameterError(f"{kind} requires a vp-continuous schedule")
    if kind == "dpm-solver-2s":
        return _run_dpm_2s(spec, s, grid, ctx, plusplus=False)
    if kind == "dpmpp-2s":
        return _run_dpm_2s(spec, s, grid, ctx, plusplus=True)
    if kind == "dpm-solver-3s":
        return _run_dpm_3s(spec, s, grid, ctx, plusplus=False)
    if kind == "dpmpp-3s":
        return _run_dpm_3s(spec, s, grid, ctx, plusplus=True)
    return _run_deis(spec, s, grid, ctx)
