from dataclasses import replace

import numpy as np
import pytest

from nimatrix.coeffmatrix import trace_sampler
from nimatrix.engine import RunConfig, over_enhance, run_matrix
from nimatrix.errors import NumericError, ParameterError, ValidationError
from nimatrix.oracles import make_predictor
from nimatrix.samplers import SamplerSpec
from nimatrix.schedule import mixing_coeffs


@pytest.fixture()
def ddim18(gmm16, vp):
    m = trace_sampler(SamplerSpec(kind="ddim"), n_evals=18)
    return m, make_predictor(gmm16, vp)


class TestRunMatrix:
    def test_shapes_and_determinism(self, ddim18):
        m, pred = ddim18
        a = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=5))
        b = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=5))
        c = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=6))
        assert a.samples.shape == (3, 16)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_trajectory_recorded(self, ddim18):
        m, pred = ddim18
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=2, seed=0,
                                 record_trajectory=True))
        assert len(r.trajectory) == m.n_evals
        assert r.trajectory[0].shape == (2, 16)

    def test_single_terminal_mode_runs_noise_free_rows(self, ddim18):
        m, pred = ddim18
        r = run_matrix(RunConfig(matrix=replace(m, noise_mode="single-terminal"),
                                 predictor=pred, n=2, seed=1))
        assert np.isfinite(r.samples).all()

    def test_single_terminal_is_a_one_column_traced_block(self, ddim18):
        # single-terminal rows carry c1(row time) on one shared draw, 0 on
        # the terminal row: the same run as that block stored and traced
        m, pred = ddim18
        s = m.schedule()
        c1 = [mixing_coeffs(s, t)[1] for t in m.row_times[:-1]] + [0.0]
        traced = replace(m, noise=np.array(c1)[:, None],
                         noise_times=(m.row_times[0],))
        single = replace(m, noise_mode="single-terminal")
        a = run_matrix(RunConfig(matrix=single, predictor=pred, n=3, seed=2,
                                 record_trajectory=True))
        b = run_matrix(RunConfig(matrix=traced, predictor=pred, n=3, seed=2,
                                 record_trajectory=True))
        assert np.array_equal(a.samples, b.samples)
        assert all(np.array_equal(u, v)
                   for u, v in zip(a.trajectory, b.trajectory))

    def test_traced_mode_requires_noise_block(self, ddim18):
        m, _ = ddim18
        with pytest.raises(ValidationError, match="no noise columns"):
            replace(m, noise=np.zeros((m.n_rows, 0)), noise_times=())

    def test_bad_n(self, ddim18):
        m, pred = ddim18
        with pytest.raises(ParameterError):
            run_matrix(RunConfig(matrix=m, predictor=pred, n=0))

    def test_predictor_shape_checked(self, ddim18):
        m, _ = ddim18

        class Bad:
            d = 16

            def __call__(self, t, x):
                return np.zeros((1, 16))

        with pytest.raises(ValidationError):
            run_matrix(RunConfig(matrix=m, predictor=Bad(), n=2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_prediction_raises(self, ddim18, value):
        m, pred = ddim18

        class Bad:
            d = 16

            def __call__(self, t, x):
                y = np.array(pred(t, x))
                if t < 500:
                    y[0, 3] = value
                return y

        with pytest.raises(NumericError, match="non-finite"):
            run_matrix(RunConfig(matrix=m, predictor=Bad(), n=2))


class TestOverEnhance:
    def test_dry_is_idempotent_at_zero_noise(self, small_dataset, flow):
        # at t = 0 the predictor snaps to the nearest atom, which is a
        # fixed point of further iteration
        pred = make_predictor(small_dataset, flow)
        x0 = small_dataset.atoms[3] + 0.01
        seq = over_enhance(pred, flow, 0.0, x0, k=4, mode="dry")
        assert len(seq) == 5
        assert np.array_equal(seq[1], seq[2])
        assert np.array_equal(seq[2], seq[4])

    def test_renoise_is_seeded(self, small_dataset, vp):
        pred = make_predictor(small_dataset, vp)
        x0 = small_dataset.atoms[0]
        a = over_enhance(pred, vp, 300, x0, k=3, seed=9)
        b = over_enhance(pred, vp, 300, x0, k=3, seed=9)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_bad_arguments(self, small_dataset, vp):
        pred = make_predictor(small_dataset, vp)
        with pytest.raises(ParameterError):
            over_enhance(pred, vp, 300, np.zeros(4), k=-1)
        with pytest.raises(ParameterError):
            over_enhance(pred, vp, 300, np.zeros(4), k=1, mode="wet")
