import math

import numpy as np
import pytest

from nimatrix.errors import DomainError, NumericError, ParameterError
from nimatrix.samplers import (KIND_TABLE, KINDS, SamplerSpec,
                               ddim_step_coeffs, ddpm_step_coeffs,
                               default_grid, default_schedule, deis_weights,
                               flow_euler_step_coeffs, eps_from_x0,
                               run_native)
from nimatrix.schedule import (FAMILIES, make_flow, make_grid,
                               make_vp_continuous, make_vp_linear,
                               mixing_coeffs)
from nimatrix.affine import AffineState, RunContext, lin_combine
from nimatrix.coeffmatrix import trace_sampler


def c01(s, t):
    return mixing_coeffs(s, t)


class TestStepCoefficients:
    @pytest.mark.parametrize("t,tp", [(999, 940), (500, 450), (57, 0)])
    def test_ddpm_preserves_marginals(self, vp, t, tp):
        c = ddpm_step_coeffs(vp, t, tp)
        c0t, c1t = c01(vp, t)
        c0p, c1p = c01(vp, tp)
        assert c.d * c0t + c.e == pytest.approx(c0p, abs=1e-12)
        assert math.hypot(c.d * c1t, c.g) == pytest.approx(c1p, abs=1e-12)

    @pytest.mark.parametrize("t,tp", [(999, 940), (500, 450), (57, 0)])
    def test_ddim_preserves_marginals(self, vp, t, tp):
        c = ddim_step_coeffs(vp, t, tp)
        c0t, c1t = c01(vp, t)
        c0p, c1p = c01(vp, tp)
        assert c.g == 0.0
        assert c.d * c0t + c.e == pytest.approx(c0p, abs=1e-12)
        assert c.d * c1t == pytest.approx(c1p, abs=1e-12)

    def test_flow_euler_preserves_marginals(self):
        c = flow_euler_step_coeffs(0.6, 0.4)
        # state at t: (1-t) x0 + t eps
        assert c.d * 0.6 == pytest.approx(0.4)
        assert c.d * 0.4 + c.e == pytest.approx(0.6)

    def test_reversed_times_rejected(self, vp):
        with pytest.raises(ParameterError):
            ddpm_step_coeffs(vp, 100, 200)

    @pytest.mark.parametrize("step", [ddpm_step_coeffs, ddim_step_coeffs])
    @pytest.mark.parametrize("t,tp", [(5, -3), (1000, 0), (5.4, 2)])
    def test_times_off_the_chain_rejected(self, vp, step, t, tp):
        # a negative index, an index past T - 1 and a fractional time
        with pytest.raises(DomainError):
            step(vp, t, tp)

    def test_flow_step_at_zero_rejected(self):
        with pytest.raises(NumericError):
            flow_euler_step_coeffs(0.0, 0.0)


class TestConversions:
    def test_x0_eps_roundtrip(self, vp):
        x = AffineState(signal=[0.4], noise=[0.9])
        e = AffineState(signal=[0.0, 1.0])
        c0, c1 = c01(vp, 500)
        y = lin_combine([(1.0 / c0, x), (-c1 / c0, e)])  # x0 from eps
        e2 = eps_from_x0(vp, 500, x, y)
        assert e2.signal[1] == pytest.approx(1.0, abs=1e-12)
        assert e2.signal[0] == pytest.approx(0.0, abs=1e-12)


class TestDefaults:
    def test_every_kind_has_defaults(self):
        for kind in KINDS:
            spec = SamplerSpec(kind=kind)
            s = default_schedule(spec)
            g = default_grid(spec, s, 18)
            assert len(g) >= 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            SamplerSpec(kind="heun")

    @pytest.mark.parametrize("kind,options,match", [
        # only dpm-solver-2s takes r1; the other DPM fractions are fixed
        ("dpm-solver-2s", {"r1": 0}, "0 < r1 < 1"),
        ("dpmpp-2s", {"r1": 0.0}, "no option 'r1'"),
        ("dpm-solver-3s", {"r1": 0}, "no option 'r1'"),
        ("dpm-solver-2s", {"r1": 1.5}, "0 < r1 < 1"),
        ("dpmpp-2s", {"r1": 1.0}, "no option 'r1'"),
        ("dpm-solver-2s", {"r1": -0.5}, "0 < r1 < 1"),
        ("dpmpp-2s", {"r1": -0.5}, "no option 'r1'"),
        ("dpm-solver-2s", {"r1": math.nan}, "finite number"),
        ("dpmpp-2s", {"r1": "0.5"}, "no option 'r1'"),
        ("dpm-solver-3s", {"r1": 0.7}, "no option 'r1'"),
        ("dpmpp-3s", {"r1": 0.5, "r2": 0.4}, "no option 'r1'"),
        ("dpmpp-3s", {"r2": 1.0}, "no option 'r2'"),
        ("dpmpp-3s", {"correction_sign": 0.5}, "correction_sign"),
        ("dpmpp-3s", {"correction_sign": 0}, "correction_sign"),
        # the stencil size is bound into each DEIS runner, not an option
        ("deis-2", {"points": 2}, "no option 'points'"),
        ("deis-3", {"points": 4}, "no option 'points'"),
        ("deis-1", {"points": 1}, "no option 'points'"),
        ("dpm-solver-2s", {"bogus": 3}, "no option 'bogus'"),
        ("dpm-solver-3s", {"correction_sign": 1}, "no option"),
        ("ddpm", {"r1": 0.5}, "no option 'r1'"),
        ("deis-2", {"r1": 0.5}, "no option 'r1'"),
        ("ddim", None, "mapping")])
    def test_bad_options_rejected_at_spec(self, kind, options, match):
        with pytest.raises(ParameterError, match=match):
            SamplerSpec(kind=kind, options=options)

    def test_options_cannot_change_after_the_check(self):
        options = {"r1": 0.3}
        spec = SamplerSpec(kind="dpm-solver-2s", options=options)
        options["r1"] = 0.0
        assert spec.option("r1") == 0.3
        with pytest.raises(TypeError):
            spec.options["r1"] = 0.0

    def test_equal_specs_hash_alike(self):
        a = SamplerSpec("dpm-solver-2s", {"r1": 0.3})
        b = SamplerSpec("dpm-solver-2s", dict(a.options))
        assert a == b and a is not b and hash(a) == hash(b)
        table = {SamplerSpec("ddpm"): "ddpm", a: "r1 = 0.3"}
        assert table[SamplerSpec("ddpm")] == "ddpm" and table[b] == "r1 = 0.3"
        assert SamplerSpec("dpm-solver-2s") not in table

    @pytest.mark.parametrize("kind,options", [
        ("dpm-solver-2s", {"r1": 0.3}), ("dpmpp-3s", {"correction_sign": 1})])
    def test_good_options_trace(self, kind, options):
        assert trace_sampler(SamplerSpec(kind=kind, options=options),
                             n_evals=6).n_evals == 6

    def test_kind_table(self):
        # the table holds each kind's default grid, and the DEIS runners
        # have their stencil sizes bound in; no option sets those
        for kind in KINDS:
            spec = SamplerSpec(kind=kind)
            s = default_schedule(spec)
            rule = KIND_TABLE[kind].grid
            assert rule == ("quadratic" if kind.startswith("deis")
                            else "linspace-trailing")
            assert default_grid(spec, s, 6) == default_grid(spec, s, 6, rule)
        assert {k: KIND_TABLE[k].run.args
                for k in ("deis-1", "deis-2", "deis-3")} == {
            "deis-1": (1,), "deis-2": (2,), "deis-3": (4,)}
        with pytest.raises(ParameterError, match="no option 'points'"):
            SamplerSpec(kind="deis-3", options={"points": 3})

    def test_grouped_kinds_need_divisible_counts(self, vpc):
        with pytest.raises(ParameterError):
            default_grid(SamplerSpec(kind="dpm-solver-2s"), vpc, 17)
        with pytest.raises(ParameterError):
            default_grid(SamplerSpec(kind="dpmpp-3s"), vpc, 17)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_evaluations_rejected(self, kind):
        # a one-point continuous grid would trace a matrix with no
        # evaluation at all
        spec = SamplerSpec(kind=kind)
        with pytest.raises(ParameterError, match="positive"):
            default_grid(spec, default_schedule(spec), 0)

    def test_eval_counts_match_grid(self, vpc):
        g2 = default_grid(SamplerSpec(kind="dpm-solver-2s"), vpc, 18)
        assert len(g2) == 10  # 9 two-evaluation groups
        g3 = default_grid(SamplerSpec(kind="dpm-solver-3s"), vpc, 18)
        assert len(g3) == 7  # 6 three-evaluation groups
        gd = default_grid(SamplerSpec(kind="deis-3"), vpc, 18)
        assert len(gd) == 19  # 18 steps, one evaluation each


class TestDeisWeights:
    def test_single_point_matches_closed_form(self, vpc):
        # with one stencil point the polynomial is constant 1 and the
        # integral has the closed form sigma(t') - (a(t')/a(t)) sigma(t)
        t, tn = 0.8, 0.6
        (w,) = deis_weights(vpc, [t], t, tn)
        want = vpc.sigma(tn) - vpc.alpha(tn) / vpc.alpha(t) * vpc.sigma(t)
        assert w == pytest.approx(want, abs=1e-10)

    def test_weights_reproduce_lagrange_interpolation(self, vpc):
        # weights for a 2-point stencil applied to samples of a linear
        # function equal the integral of the kernel times that function
        ts = [0.9, 0.7]
        ws = deis_weights(vpc, ts, 0.7, 0.5)
        f = lambda t: 2.0 * t + 1.0
        combo = sum(w * f(t) for w, t in zip(ws, ts))
        from scipy.integrate import quad
        kernel = lambda tau: (vpc.alpha(0.5) / vpc.alpha(tau)
                              * vpc.beta(tau) / (2 * vpc.sigma(tau)) * f(tau))
        want, _ = quad(kernel, 0.7, 0.5, epsabs=1e-13, epsrel=1e-12)
        assert combo == pytest.approx(want, abs=1e-9)

    def test_flagged_quadrature_raises(self):
        # on a nearly flat schedule quad flags its results for roundoff
        s = make_vp_continuous(1e-9, 1e-9)
        with pytest.raises(NumericError, match="did not converge.*roundoff"):
            trace_sampler(SamplerSpec(kind="deis-3"), s=s, n_evals=18)

    def test_deis1_equals_ddim_on_matched_grid(self, vpc):
        # a one-point stencil makes the integrator a first-order
        # deterministic step; compare whole traced matrices
        g = default_grid(SamplerSpec(kind="deis-1"), vpc, 12)
        m1 = trace_sampler(SamplerSpec(kind="deis-1"), s=vpc, grid=g)
        m2 = trace_sampler(SamplerSpec(kind="deis-2"), s=vpc, grid=g)
        # order 2 differs from order 1 beyond the first step
        assert not np.allclose(m1.signal, m2.signal, atol=1e-6)


class TestTracedStructure:
    @pytest.mark.parametrize("kind", KINDS)
    def test_trace_shapes(self, kind):
        n = 18
        m = trace_sampler(SamplerSpec(kind=kind), n_evals=n)
        assert m.signal.shape == (n + 1, n)
        assert m.n_rows == n + 1

    @pytest.mark.parametrize("kind,family", [
        (k, f) for k in KINDS for f in FAMILIES if f != KIND_TABLE[k].family])
    def test_family_mismatch_rejected(self, kind, family):
        # the family is checked before a grid is built: on a five-step
        # chain the default grid of 18 evaluations would not fit
        spec = SamplerSpec(kind=kind)
        want = f"^{kind} requires a {KIND_TABLE[kind].family} schedule$"
        for s in {"vp-discrete": (make_vp_linear(), make_vp_linear(T=5)),
                  "flow": (make_flow(),),
                  "vp-continuous": (make_vp_continuous(),)}[family]:
            grid = make_grid(s, 4)
            for call in (lambda: default_grid(spec, s, 18),
                         lambda: trace_sampler(spec, s=s),
                         lambda: trace_sampler(spec, s=s, grid=grid),
                         lambda: run_native(spec, s, grid, RunContext())):
                with pytest.raises(ParameterError, match=want):
                    call()
