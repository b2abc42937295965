"""End-to-end acceptance checks: reference-table agreement, invariant
trends, executor/trace equivalence, oracle correctness, concentration
statistics, guidance classification, search contract, and bulk property
suites.  Each block carries an explicit wall-clock budget."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nimatrix.analysis import degradation_table, wilson_center, wilson_halfwidth
from nimatrix.coeffmatrix import (CoefficientMatrix, TERMINAL_OUTPUT,
                                  deviation_trend, equivalent_marginals,
                                  trace_sampler)
from nimatrix.engine import RunConfig, over_enhance, run_matrix
from nimatrix.errors import ValidationError
from nimatrix.guidance import classify_matrix, decompose_row, unfold
from nimatrix.oracles import (Dataset, GaussianMixture,
                              gmm_marginal_logdensity, make_predictor,
                              posterior_mean_dataset, posterior_mean_gmm,
                              posterior_weights, score_from_x0hat)
from nimatrix.presets import preset_payload, load_preset
from nimatrix.samplers import (SamplerSpec, ddim_step_coeffs,
                               ddpm_step_coeffs, default_grid,
                               default_schedule, run_native)
from nimatrix.affine import CONCRETE, RunContext
from nimatrix.schedule import (make_flow, make_vp_continuous, make_vp_linear,
                               mixing_coeffs)
from nimatrix.search import SearchSpace, energy_distance, optimize_matrix


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"took {elapsed:.1f}s, budget {self.seconds}s")


# ---------------------------------------------------------------------
# 1. First-order traced matrices agree with the reference tables
# ---------------------------------------------------------------------

class TestFirstOrderTables:
    @pytest.mark.parametrize("kind,preset", [
        ("ddpm", "ddpm-18"), ("ddim", "ddim-18"),
        ("flow-euler", "flow-euler-18")])
    def test_entries_and_sums(self, kind, preset):
        with Budget(1.0):
            m = trace_sampler(SamplerSpec(kind=kind), n_evals=18)
        ref = load_preset(preset)
        # half-tie rounding in the printed tables sits exactly at 5e-4
        assert np.abs(m.signal - ref.signal).max() <= 5e-4 + 1e-12
        sums = m.signal.sum(axis=1)
        printed = np.asarray(preset_payload(preset)["printed_row_sums"])
        assert np.abs(sums[1:] - printed).max() < 2e-3

    def test_ddpm_noise_block(self):
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=18)
        ref = load_preset("ddpm-18")
        assert m.noise.shape == ref.noise.shape
        assert np.abs(m.noise - ref.noise).max() < 5e-4
        norms = np.sqrt((m.noise ** 2).sum(axis=1))
        printed = np.asarray(preset_payload("ddpm-18")["printed_row_norms"])
        assert np.abs(norms[1:] - printed).max() < 2e-3


# ---------------------------------------------------------------------
# 2. Higher-order traced matrices: exact signs, close magnitudes
# ---------------------------------------------------------------------

HIGHER_ORDER = [("deis-3", "deis3-18"), ("dpm-solver-2s", "dpm-solver-2s-18"),
                ("dpm-solver-3s", "dpm-solver-3s-18"),
                ("dpmpp-2s", "dpmpp-2s-18"), ("dpmpp-3s", "dpmpp-3s-18")]


def table_residual(spec, preset):
    m = trace_sampler(spec, n_evals=18)
    ref = load_preset(preset)
    return float(np.abs(m.signal - ref.signal).max())


class TestHigherOrderTables:
    @pytest.mark.parametrize("kind,preset", HIGHER_ORDER)
    def test_signs_and_magnitudes(self, kind, preset):
        with Budget(10.0):
            m = trace_sampler(SamplerSpec(kind=kind), n_evals=18)
        ref = load_preset(preset)
        # entries below print precision carry no sign information
        mask = np.abs(ref.signal) >= 5e-4
        assert np.all(np.sign(m.signal[mask]) == np.sign(ref.signal[mask]))
        assert np.abs(m.signal - ref.signal).max() < 5e-3

    def test_3s_correction_sign_default_minimizes_residual(self):
        # the remaining residual against the reference table is print
        # quantization; flipping the correction-term sign is the only
        # alternative convention and it lands far outside tolerance
        with Budget(10.0):
            residuals = {
                sign: table_residual(
                    SamplerSpec(kind="dpmpp-3s",
                                options={"correction_sign": sign}),
                    "dpmpp-3s-18")
                for sign in (-1.0, 1.0)}
        assert min(residuals, key=residuals.get) == -1.0
        assert residuals[-1.0] < 5e-3 < residuals[1.0]
        print(f"irreducible residual {residuals[-1.0]:.2e} "
              f"at correction_sign=-1.0 (alternative: {residuals[1.0]:.2e})")

    def test_2s_midpoint_default_minimizes_residual(self):
        with Budget(10.0):
            residuals = {
                r1: table_residual(
                    SamplerSpec(kind="dpm-solver-2s", options={"r1": r1}),
                    "dpm-solver-2s-18")
                for r1 in (0.3, 0.5, 0.7)}
        assert min(residuals, key=residuals.get) == 0.5
        print(f"irreducible residual {residuals[0.5]:.2e} at r1=0.5")


# ---------------------------------------------------------------------
# 3. Marginal-deviation trends with evaluation count
# ---------------------------------------------------------------------

class TestDeviationTrends:
    @pytest.mark.xfail(
        strict=True,
        reason="deterministic trailing-grid runs inherit the initial-state "
               "deficit at every row, so the maximum deviation cannot "
               "shrink as the step count grows")
    @pytest.mark.parametrize("kind", ["ddpm", "ddim"])
    def test_discrete_chain_strictly_decreasing(self, kind):
        with Budget(120.0):
            tr = deviation_trend(SamplerSpec(kind=kind),
                                 step_counts=(18, 100, 500))
        assert tr[0] > tr[1] > tr[2]

    def test_flow_is_exact(self):
        with Budget(120.0):
            tr = deviation_trend(SamplerSpec(kind="flow-euler"),
                                 step_counts=(18, 100, 500))
        assert max(tr) <= 1e-12

    @pytest.mark.parametrize("kind", ["sde-euler", "ode-euler"])
    def test_integrators_converge(self, kind):
        with Budget(120.0):
            tr = deviation_trend(SamplerSpec(kind=kind),
                                 step_counts=(18, 60, 200))
        assert tr[0] > tr[1] > tr[2]


# ---------------------------------------------------------------------
# 4. Executor / trace equivalence
# ---------------------------------------------------------------------

NINE_KINDS = ["ddpm", "ddim", "flow-euler", "sde-euler", "ode-euler",
              "deis-3", "dpm-solver-2s", "dpm-solver-3s", "dpmpp-2s"]


class TestExecutorEquivalence:
    def test_matrix_run_reproduces_native_run(self, gmm16):
        with Budget(30.0):
            for kind in NINE_KINDS:
                spec = SamplerSpec(kind=kind)
                s = default_schedule(spec)
                m = trace_sampler(spec, n_evals=18)
                pred = make_predictor(gmm16, s)
                got = run_matrix(RunConfig(matrix=m, predictor=pred,
                                           n=4, seed=7)).samples
                ctx = RunContext(mode=CONCRETE, predictor=pred, seed=7,
                                 shape=(4, 16))
                want = run_native(spec, s, default_grid(spec, s, 18), ctx)
                rel = np.abs(got - want).max() / np.abs(want).max()
                assert rel <= 1e-9, f"{kind}: relative error {rel:.2e}"


# ---------------------------------------------------------------------
# 5. Oracle correctness against independent references
# ---------------------------------------------------------------------

class TestOracleCorrectness:
    def test_dataset_mean_matches_brute_force(self, vp, rng):
        with Budget(30.0):
            atoms = rng.standard_normal((30, 6))
            ds = Dataset(atoms=atoms)
            t = 400
            c0, c1 = mixing_coeffs(vp, t)
            for _ in range(20):
                x = c0 * atoms[rng.integers(30)] + c1 * rng.standard_normal(6)
                mu, sigma = x / c0, c1 / c0
                w = np.exp(-((atoms - mu) ** 2).sum(1) / (2 * sigma ** 2))
                want = (w / w.sum()) @ atoms
                got = posterior_mean_dataset(ds, vp, t, x)
                assert np.abs(got - want).max() < 1e-12

    def test_gmm_mean_matches_quadrature(self, vp, rng):
        from scipy.integrate import quad
        with Budget(30.0):
            g = GaussianMixture(weights=[0.3, 0.7], means=[[-1.0], [2.0]],
                                variances=[0.5, 0.2])
            t = 350
            c0, c1 = mixing_coeffs(vp, t)
            for x in (-0.5, 0.0, 0.8):
                def joint(x0):
                    p = sum(wk / math.sqrt(2 * math.pi * vk)
                            * math.exp(-(x0 - mk) ** 2 / (2 * vk))
                            for wk, mk, vk in zip([0.3, 0.7], [-1.0, 2.0],
                                                  [0.5, 0.2]))
                    lik = math.exp(-(x - c0 * x0) ** 2 / (2 * c1 ** 2))
                    return p * lik
                z, _ = quad(joint, -30, 30, epsabs=1e-13, epsrel=1e-12,
                            limit=200)
                num, _ = quad(lambda x0: x0 * joint(x0), -30, 30,
                              epsabs=1e-13, epsrel=1e-12, limit=200)
                got = posterior_mean_gmm(g, vp, t, np.array([x]))
                assert abs(float(got[0]) - num / z) < 1e-6

    def test_score_matches_finite_differences(self, gmm16, vp, rng):
        with Budget(30.0):
            t = 300
            h = 1e-5
            for _ in range(5):
                x = rng.standard_normal(16)
                y = posterior_mean_gmm(gmm16, vp, t, x)
                sc = score_from_x0hat(vp, t, x, y)
                for j in range(16):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd = (gmm_marginal_logdensity(gmm16, vp, t, xp)
                          - gmm_marginal_logdensity(gmm16, vp, t, xm)) / (2 * h)
                    assert abs(sc[j] - fd) < 1e-4


# ---------------------------------------------------------------------
# 6. Posterior-concentration patterns on synthetic data
# ---------------------------------------------------------------------

CI_SLACK = 0.03


class TestConcentrationPatterns:
    def test_rate_shrinks_with_noise_and_flow_exceeds_vp(self):
        with Budget(300.0):
            rng = np.random.default_rng(42)
            ds = Dataset(atoms=rng.standard_normal((10_000, 64)))
            vp, fl = make_vp_linear(), make_flow()
            fracs = [0.1, 0.3, 0.5, 0.7, 0.9]
            rep = degradation_table(
                ds, [vp, fl], [[int(1000 * f) for f in fracs], fracs],
                trials=1000, seed=0)
            vp_rates = [r.rate_degraded for r in rep.rows[:5]]
            fl_rates = [r.rate_degraded for r in rep.rows[5:]]
            for rates in (vp_rates, fl_rates):
                for a, b in zip(rates, rates[1:]):
                    assert b <= a + CI_SLACK
            for f, v in zip(fl_rates, vp_rates):
                assert f >= v - CI_SLACK

    def test_higher_dimension_concentrates_more(self):
        with Budget(300.0):
            rng = np.random.default_rng(42)
            intervals = []
            for d in (8, 64, 512):
                ds = Dataset(atoms=rng.standard_normal((10_000, d)))
                row = degradation_table(ds, [make_vp_linear()], [[300]],
                                        trials=1000, seed=1).rows[0]
                k = round(row.rate_degraded * row.trials)
                c = wilson_center(k, row.trials)
                h = wilson_halfwidth(k, row.trials)
                intervals.append((c - h, c + h))
            (lo8, hi8), (lo64, hi64), (lo512, hi512) = intervals
            assert hi8 < lo64 < hi64 < lo512


# ---------------------------------------------------------------------
# 7. Guidance classification of traced samplers
# ---------------------------------------------------------------------

class TestGuidanceClassification:
    def test_first_order_rows_all_interpolate(self):
        with Budget(1.0):
            for kind in ("ddim", "dpmpp-2s"):
                m = trace_sampler(SamplerSpec(kind=kind), n_evals=18)
                assert {s for _, s in classify_matrix(m)} == {"all-Mid"}

    def test_multistep_rows_extrapolate(self):
        with Budget(1.0):
            for kind in ("deis-3", "dpm-solver-3s"):
                m = trace_sampler(SamplerSpec(kind=kind), n_evals=18)
                assert "has-Fore" in {s for _, s in classify_matrix(m)}

    def test_decomposition_reconstructs_rows(self):
        with Budget(1.0):
            m = trace_sampler(SamplerSpec(kind="deis-3"), n_evals=18)
            for row in m.signal[2:]:
                nz = [v for v in row if v != 0.0]
                if len(nz) < 2:
                    continue
                back = unfold(decompose_row(row))
                assert np.abs(np.asarray(back) - nz).max() < 1e-12


# ---------------------------------------------------------------------
# 8. Search contract
# ---------------------------------------------------------------------

class TestSearchContract:
    def test_budget_2000_beats_baseline(self, ring_gmm):
        with Budget(180.0):
            base = trace_sampler(SamplerSpec(kind="ddim"), n_evals=5)
            pred = make_predictor(ring_gmm, base.schedule())
            rng = np.random.default_rng(123)
            comp = rng.integers(8, size=2048)
            ref = (ring_gmm.means[comp]
                   + np.sqrt(0.02) * rng.standard_normal((2048, 2)))
            baseline = energy_distance(
                run_matrix(RunConfig(matrix=base, predictor=pred, n=512,
                                     seed=0)).samples, ref)
            res = optimize_matrix(SearchSpace(base=base, band=3), pred, ref,
                                  budget=2000, seed=0, n_samples=512)
            tr = res.objective_trace
            assert res.evaluations <= 2000
            assert all(b <= a for a, b in zip(tr, tr[1:]))
            assert res.best_objective <= baseline


# ---------------------------------------------------------------------
# 9. Bulk invariant property suites
# ---------------------------------------------------------------------

VP = make_vp_linear()
VPC = make_vp_continuous()
FLOW = make_flow()
ATOMS = np.random.default_rng(5).standard_normal((8, 3))
PROP_DS = Dataset(atoms=ATOMS)
PROP_PRED = make_predictor(PROP_DS, FLOW)


class TestBulkProperties:
    @settings(max_examples=1000, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_families_satisfy_their_constraint(self, t):
        c0, c1 = mixing_coeffs(FLOW, t)
        assert abs(c0 + c1 - 1.0) < 1e-12
        c0, c1 = mixing_coeffs(VPC, t)
        assert abs(c0 * c0 + c1 * c1 - 1.0) < 1e-12
        ti = int(round(t * 999))
        c0, c1 = mixing_coeffs(VP, ti)
        assert abs(c0 * c0 + c1 * c1 - 1.0) < 1e-12

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(1, 999), st.integers(0, 998))
    def test_step_coefficients_preserve_marginals(self, t, tp):
        if tp >= t:
            tp = t - 1
        c0t, c1t = mixing_coeffs(VP, t)
        c0p, c1p = mixing_coeffs(VP, tp)
        c = ddpm_step_coeffs(VP, t, tp)
        assert abs(c.d * c0t + c.e - c0p) < 1e-9
        assert abs(math.hypot(c.d * c1t, c.g) - c1p) < 1e-9
        c = ddim_step_coeffs(VP, t, tp)
        assert abs(c.d * c0t + c.e - c0p) < 1e-9
        assert abs(c.d * c1t - c1p) < 1e-9

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6), st.data())
    def test_triangularity_is_enforced(self, n, seed, data):
        r = np.random.default_rng(seed)
        signal = np.tril(r.standard_normal((n + 1, n)), k=-1)
        signal[n] = r.standard_normal(n)
        times = tuple(float(v) for v in np.linspace(1.0, 1.0 / n, n))
        m = CoefficientMatrix(schedule_info={"family": "flow"},
                              row_times=times + (times[-1] / 2,),
                              col_times=times, signal=signal,
                              noise=np.ones((n + 1, 1)), noise_times=(1.0,))
        assert m.n_evals == n
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i, n - 1))
        bad = signal.copy()
        bad[i, j] = 1.0
        with pytest.raises(ValidationError, match="not lower triangular"):
            CoefficientMatrix(schedule_info={"family": "flow"},
                              row_times=times + (times[-1] / 2,),
                              col_times=times, signal=bad,
                              noise=np.ones((n + 1, 1)), noise_times=(1.0,))

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_posterior_limits(self, seed):
        r = np.random.default_rng(seed)
        x = ATOMS[r.integers(8)] + 0.01 * r.standard_normal(3)
        w0 = posterior_weights(PROP_DS, FLOW, 0.0, x)
        assert w0.max() == 1.0 and w0.sum() == 1.0
        w1 = posterior_weights(PROP_DS, FLOW, 1.0, x)
        assert np.allclose(w1, 1.0 / 8.0)

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_zero_noise_prediction_is_a_fixed_point(self, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal(3)
        seq = over_enhance(PROP_PRED, FLOW, 0.0, x, k=2, mode="dry")
        assert np.array_equal(seq[1], seq[2])
