import hashlib
import json
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from nimatrix.coeffmatrix import (TERMINAL_OUTPUT, CoefficientMatrix,
                                  from_payload, save, trace_sampler)
from nimatrix.engine import (CARRY_TOL, RunConfig, _draw, _plan,
                             over_enhance, run_matrix)
from nimatrix.errors import NumericError, ParameterError, ValidationError
from nimatrix.oracles import GaussianMixture, make_predictor
from nimatrix.presets import PRESET_NAMES, load_preset
from nimatrix.samplers import KINDS, SamplerSpec
from nimatrix.schedule import mixing_coeffs


def per_entry_run(m, pred, n, seed):
    """Reference executor: one axpy per nonzero entry, one draw per column.

    This is the row rule ``run_matrix`` used before it formed rows as
    matrix products; the products must agree with it to rounding.
    """
    noise = m.noise
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


@cache
def _traced(kind, n_evals):
    """The traced matrix, or None where the kind cannot trace that count
    (e.g. a three-stage solver at 100 evaluations)."""
    try:
        return trace_sampler(SamplerSpec(kind=kind), n_evals=n_evals)
    except ParameterError:
        return None


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


TRACEABLE = [(k, n) for k in KINDS for n in (6, 18, 60, 100, 300)
             if _traced(k, n) is not None]


def single_terminal_load(m, tmp_path):
    """``m`` saved, then loaded as a single-terminal file: no noise block."""
    save(m, tmp_path / "m.json")
    payload = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
    payload.update(noise_mode="single-terminal", noise="", noise_times=[])
    return from_payload(payload)


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
        # the trajectory is the executor's (n_evals, n, d) output buffer:
        # ddim's terminal row weights no noise, so the sample is its
        # signal row times that buffer
        m, pred = ddim18
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=2, seed=0))
        assert r.trajectory.shape == (m.n_evals, 2, 16)
        assert not m.noise[-1].any()
        want = m.signal[-1] @ r.trajectory.reshape(m.n_evals, -1)
        assert np.array_equal(r.samples, want.reshape(2, 16))

    def test_single_terminal_mode_runs_noise_free_rows(self, ddim18,
                                                       tmp_path):
        # a single-terminal file runs to finite samples; its terminal row
        # weights no noise, so the sample is its signal row times the buffer
        m, pred = ddim18
        single = single_terminal_load(m, tmp_path)
        assert not single.noise[-1].any()
        r = run_matrix(RunConfig(matrix=single, predictor=pred, n=2, seed=1))
        assert np.isfinite(r.samples).all()
        want = single.signal[-1] @ r.trajectory.reshape(single.n_evals, -1)
        assert np.array_equal(r.samples, want.reshape(2, 16))

    def test_single_terminal_is_a_one_column_traced_block(self, ddim18,
                                                          tmp_path):
        # a single-terminal file loads with c1(row time) on one shared
        # draw, 0 on the terminal row, and runs as that block stored traced
        m, pred = ddim18
        s = m.schedule()
        c1 = [mixing_coeffs(s, t)[1] for t in m.row_times[:-1]] + [0.0]
        traced = replace(m, noise=np.array(c1)[:, None],
                         noise_times=(m.row_times[0],))
        single = single_terminal_load(m, tmp_path)
        assert single.noise_times == traced.noise_times
        assert single.noise.tobytes() == traced.noise.tobytes()
        a = run_matrix(RunConfig(matrix=single, predictor=pred, n=3, seed=2))
        b = run_matrix(RunConfig(matrix=traced, predictor=pred, n=3, seed=2))
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.trajectory, b.trajectory)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_state_is_numeric_error(self, ddim18):
        # the predictor rejects the overflowed state; it used to return NaN
        m, pred = ddim18
        big = replace(m, noise=m.noise * 1e308)
        with pytest.raises(NumericError, match="non-finite state"):
            run_matrix(RunConfig(matrix=big, predictor=pred, n=2))


class TestMatrixProducts:
    @pytest.mark.parametrize("mode", ["traced", "single-terminal"])
    @pytest.mark.parametrize("kind,n_evals", TRACEABLE)
    def test_matches_per_entry_rule(self, gmm16, tmp_path, kind, n_evals,
                                    mode):
        # at 60 and 300 evaluations most rows of the first-order kinds
        # play carried (a * previous state plus their new columns)
        m = _traced(kind, n_evals)
        if mode == "single-terminal":
            m = single_terminal_load(m, tmp_path)
        pred = make_predictor(gmm16, m.schedule())
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=4))
        want, outputs = per_entry_run(m, pred, n=3, seed=4)
        assert _rel(r.samples, want) <= 1e-12
        assert len(r.trajectory) == len(outputs) == m.n_evals
        for got, ref in zip(r.trajectory, outputs):
            assert got.shape == ref.shape
            assert _rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_per_entry_rule(self, gmm16, name):
        m = load_preset(name)
        pred = make_predictor(gmm16, m.schedule())
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=4))
        want, outputs = per_entry_run(m, pred, n=3, seed=4)
        assert _rel(r.samples, want) <= 1e-12
        for got, ref in zip(r.trajectory, outputs):
            assert _rel(got, ref) <= 1e-12

    def test_covers_every_kind_at_100_where_allowed(self):
        assert {k for k, _ in TRACEABLE} == set(KINDS)
        assert sum(n == 100 for _, n in TRACEABLE) >= len(KINDS) - 2
        assert {k for k, n in TRACEABLE if n == 60} == set(KINDS)
        assert {k for k, n in TRACEABLE if n == 300} == set(KINDS)

    def test_edited_entries_match_per_entry_rule(self, gmm16):
        # a hand-edited entry changes its row's residual (wide enough, the
        # row falls back to dense) and the next row's carry ratio
        m = _traced("ddpm", 60)
        pred = make_predictor(gmm16, m.schedule())
        rng = np.random.default_rng(12)
        dense_edits = 0
        for _ in range(16):
            signal, noise = m.signal.copy(), m.noise.copy()
            i = int(rng.integers(1, m.n_rows))
            if rng.random() < 0.5:
                signal[i, rng.integers(min(i, m.n_evals))] += rng.normal()
            else:
                noise[i, rng.integers(noise.shape[1])] += rng.normal()
            edited = replace(m, signal=signal, noise=noise)
            if i < m.n_evals:
                dense_edits += _plan(edited, i)[0].carry == 0.0
            r = run_matrix(RunConfig(matrix=edited, predictor=pred, n=3,
                                     seed=5))
            want, outputs = per_entry_run(edited, pred, n=3, seed=5)
            assert _rel(r.samples, want) <= 1e-12
            for got, ref in zip(r.trajectory, outputs):
                assert _rel(got, ref) <= 1e-12
        assert dense_edits > 0

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
                              signal=np.zeros((1, 0)), noise=np.zeros((1, 0)))

        class Identity:
            d = 3

            def __call__(self, t, x):
                return x

        r = run_matrix(RunConfig(matrix=m, predictor=Identity(), n=2))
        assert np.array_equal(r.samples, np.zeros((2, 3)))
        assert len(r.trajectory) == 0


class TestPlan:
    """The carried play's shape, by counts: a silent fall-back to the
    dense (quadratic) play fails here."""

    def test_ddpm_300_carries_every_row_after_the_first(self):
        m = _traced("ddpm", 300)
        plan = _plan(m, 0)
        assert len(plan) == m.n_evals
        assert plan[0].carry == 0.0
        for row in plan[1:]:
            assert row.carry != 0.0
            assert row.signal_cols.stop - row.signal_cols.start == 1
            assert row.noise_cols.stop - row.noise_cols.start == 1
            assert len(row.signal) == len(row.noise) == 1

    def test_ddim_5_plays_every_row_dense(self):
        m = _traced("ddim", 5)
        for i, row in enumerate(_plan(m, 0)):
            assert row.carry == 0.0
            assert row.signal_cols == slice(0, i)
            assert row.noise_cols == slice(0, m.noise.shape[1])
            assert np.array_equal(row.signal, m.signal[i, :i])
            assert np.array_equal(row.noise, m.noise[i])

    @pytest.mark.parametrize("kind,n_evals", [
        ("ddpm", 300), ("ddim", 60), ("sde-euler", 60), ("dpmpp-2s", 60),
        ("dpm-solver-3s", 60)])
    def test_terminal_row_plays_dense(self, gmm16, kind, n_evals):
        m = _traced(kind, n_evals)
        assert len(_plan(m, 0)) == m.n_evals  # input rows only
        pred = make_predictor(gmm16, m.schedule())
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=2, seed=3))
        draws = _draw(m, 2, 16, 3)
        want = (m.signal[-1] @ r.trajectory.reshape(m.n_evals, -1)
                + m.noise[-1] @ draws)
        assert np.array_equal(r.samples, want.reshape(2, 16))

    @pytest.mark.parametrize("kind,n_evals", [
        ("ddpm", 300), ("ddim", 60), ("flow-euler", 60), ("dpmpp-2s", 60),
        ("dpm-solver-3s", 60)])
    def test_dropped_residual_is_bounded(self, kind, n_evals):
        m = _traced(kind, n_evals)
        rows = np.hstack((m.signal, m.noise))
        n_sig = m.n_evals
        carried = 0
        for i, row in enumerate(_plan(m, 0)):
            if row.carry == 0.0:
                continue
            carried += 1
            r = rows[i] - row.carry * rows[i - 1]
            top = np.abs(rows[i]).max()
            kept = np.zeros(r.shape, dtype=bool)
            kept[row.signal_cols] = True
            kept[n_sig + row.noise_cols.start:n_sig + row.noise_cols.stop] = True
            assert np.all(np.abs(r[~kept]) <= CARRY_TOL * top)
            assert np.array_equal(r[row.signal_cols], row.signal)
        assert carried > 0

    def test_states_are_the_played_inputs(self, gmm16):
        # the state buffer holds each row's model input: the predictor
        # sees exactly the rows of result.states
        m = _traced("ddpm", 60)
        base = make_predictor(gmm16, m.schedule())
        seen = []

        class Recording:
            d = 16

            def __call__(self, t, x):
                seen.append(np.array(x))
                return base(t, x)

        r = run_matrix(RunConfig(matrix=m, predictor=Recording(), n=2,
                                 seed=1))
        assert r.states.shape == r.trajectory.shape
        assert all(np.array_equal(x, s) for x, s in zip(seen, r.states))


#: sha256 of ``run_matrix``'s samples, trajectory and states, in that
#: order, for ddpm-300 against ``_mixture_64()`` with n = 16 and seed 7,
#: taken when the draws, outputs and states were three separate arrays.
RUN_DIGEST = "b526795d9dfaed4e44d2a3cbee4ba22fd91e11d68f2b66c5ae2b0b42afa17d13"


def _mixture_64():
    """An 8-component mixture in d = 64 with unequal weights and variances."""
    r = np.random.default_rng(5)
    w = r.uniform(0.5, 1.5, 8)
    return GaussianMixture(weights=w / w.sum(),
                           means=2.0 * r.standard_normal((8, 64)),
                           variances=r.uniform(0.2, 1.0, 8))


class TestRunBuffer:
    """A run allocates one ``(k + 2*n_evals, n*d)`` buffer: draws, then
    outputs, then states."""

    @pytest.mark.parametrize("k,n,d", [(0, 3, 2), (1, 4, 5), (1, 1, 1),
                                       (6, 1, 1), (7, 3, 16)])
    def test_draw_into_out_is_bitwise_draw(self, k, n, d):
        m = SimpleNamespace(noise=np.zeros((1, k)))  # _draw reads k only
        want = np.random.default_rng(9).standard_normal((k, n, d))
        drawn = _draw(m, n, d, 9)
        out = np.full((k, n * d), np.nan)
        assert _draw(m, n, d, 9, out) is out
        assert drawn.shape == out.shape == (k, n * d)
        assert drawn.tobytes() == out.tobytes() == want.tobytes()

    def test_draws_outputs_and_states_share_one_buffer(self, gmm16):
        m = _traced("ddpm", 18)
        pred = make_predictor(gmm16, m.schedule())
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=3, seed=2))
        k, e = m.noise.shape[1], m.n_evals
        buf = r.trajectory.base
        assert buf.shape == (k + 2 * e, 3 * 16) and buf.flags.owndata
        assert r.states.base is buf
        assert np.shares_memory(r.trajectory, buf[k:k + e])
        assert np.shares_memory(r.states, buf[k + e:])
        assert not np.shares_memory(r.trajectory, r.states)
        assert np.array_equal(buf[:k], _draw(m, 3, 16, 2))

    def test_run_bits_are_pinned(self):
        m = _traced("ddpm", 300)
        pred = make_predictor(_mixture_64(), m.schedule())
        r = run_matrix(RunConfig(matrix=m, predictor=pred, n=16, seed=7))
        h = hashlib.sha256()
        for a in (r.samples, r.trajectory, r.states):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == RUN_DIGEST

    @pytest.mark.parametrize("n", [10 ** 12, 2 ** 62])
    def test_unallocatable_batch_is_parameter_error(self, ddim18, n):
        # NumPy refuses both before touching memory: MemoryError for
        # 10**12, "array is too big" ValueError for 2**62
        m, pred = ddim18
        rows = m.noise.shape[1] + 2 * m.n_evals
        with pytest.raises(ParameterError, match=(
                f"n = {n} needs a run buffer of {8 * rows * n * 16} bytes")):
            run_matrix(RunConfig(matrix=m, predictor=pred, n=n))


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
