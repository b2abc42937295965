from dataclasses import replace

import numpy as np
import pytest

from nimatrix.coeffmatrix import (TERMINAL_OUTPUT, CoefficientMatrix,
                                  trace_sampler)
from nimatrix.engine import RunConfig, _noise_block, over_enhance, run_matrix
from nimatrix.errors import NumericError, ParameterError, ValidationError
from nimatrix.oracles import make_predictor
from nimatrix.samplers import KINDS, SamplerSpec
from nimatrix.schedule import mixing_coeffs


def per_entry_run(m, pred, n, seed):
    """Reference executor: one axpy per nonzero entry, one draw per column.

    This is the row rule ``run_matrix`` used before it formed rows as
    matrix products; the products must agree with it to rounding.
    """
    noise = _noise_block(m)
    shape = (n, pred.d)
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(shape) for _ in range(noise.shape[1])]
    outputs = []

    def row_state(i):
        x = np.zeros(shape)
        for block, terms in ((m.signal, outputs), (noise, draws)):
            row = block[i]
            for j in np.flatnonzero(row):
                x = x + row[j] * terms[j]
        return x

    for i in range(m.n_evals):
        outputs.append(np.asarray(pred(m.row_times[i], row_state(i))))
    return row_state(m.n_rows - 1), outputs


def _traceable(kind, n_evals):
    try:
        trace_sampler(SamplerSpec(kind=kind), n_evals=n_evals)
    except ParameterError:  # e.g. a three-stage solver at 100 evaluations
        return False
    return True


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


TRACEABLE = [(k, n) for k in KINDS for n in (6, 18, 100) if _traceable(k, n)]


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


class TestMatrixProducts:
    @pytest.mark.parametrize("mode", ["traced", "single-terminal"])
    @pytest.mark.parametrize("kind,n_evals", TRACEABLE)
    def test_matches_per_entry_rule(self, gmm16, kind, n_evals, mode):
        m = trace_sampler(SamplerSpec(kind=kind), n_evals=n_evals)
        m = replace(m, noise_mode=mode)
        pred = make_predictor(gmm16, m.schedule())
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=4,
                                 record_trajectory=True))
        want, outputs = per_entry_run(m, pred, n=3, seed=4)
        assert _rel(r.samples, want) <= 1e-12
        assert len(r.trajectory) == len(outputs) == m.n_evals
        for got, ref in zip(r.trajectory, outputs):
            assert got.shape == ref.shape
            assert _rel(got, ref) <= 1e-12

    def test_covers_every_kind_at_100_where_allowed(self):
        assert {k for k, _ in TRACEABLE} == set(KINDS)
        assert sum(n == 100 for _, n in TRACEABLE) >= len(KINDS) - 2

    def test_one_call_draws_equal_per_column_draws(self):
        a = np.random.default_rng(3).standard_normal((5, 4, 7))
        rng = np.random.default_rng(3)
        b = [rng.standard_normal((4, 7)) for _ in range(5)]
        assert all(np.array_equal(a[j], b[j]) for j in range(5))

    @pytest.mark.parametrize("column", [0, 2, 5])
    def test_noise_column_j_is_the_jth_draw(self, gmm16, column):
        # a terminal row that selects one noise column returns exactly
        # the draw a per-column executor makes for that column
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=6)
        signal = m.signal.copy()
        noise = m.noise.copy()
        signal[-1] = 0.0
        noise[-1] = 0.0
        noise[-1, column] = 1.0
        m = replace(m, signal=signal, noise=noise)
        pred = make_predictor(gmm16, m.schedule())
        got = run_matrix(RunConfig(matrix=m, predictor=pred, n=2, seed=8))
        rng = np.random.default_rng(8)
        draws = [rng.standard_normal((2, 16)) for _ in range(m.noise.shape[1])]
        assert np.array_equal(got.samples, draws[column])


    def test_terminal_row_only_matrix_returns_zeros(self, vp):
        # no evaluations and no noise columns: empty products, no draws
        m = CoefficientMatrix(schedule_info=vp.descriptor(),
                              row_times=(TERMINAL_OUTPUT,), col_times=(),
                              signal=np.zeros((1, 0)), noise=np.zeros((1, 0)),
                              noise_mode="traced")

        class Identity:
            d = 3

            def __call__(self, t, x):
                return x

        r = run_matrix(RunConfig(matrix=m, predictor=Identity(), n=2,
                                 record_trajectory=True))
        assert np.array_equal(r.samples, np.zeros((2, 3)))
        assert r.trajectory == ()


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
