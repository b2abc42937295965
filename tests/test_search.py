import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from nimatrix.coeffmatrix import trace_sampler
from nimatrix.engine import RunConfig, _plan, _play, run_matrix
from nimatrix.errors import ParameterError, ValidationError
from nimatrix.oracles import make_predictor
from nimatrix.samplers import SamplerSpec
from nimatrix.search import (SearchSpace, _mean_dists, energy_distance,
                             optimize_matrix, prepare_reference)


class TestEnergyDistance:
    def test_zero_on_identical_sets(self, rng):
        a = rng.standard_normal((64, 3))
        assert energy_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_positive_on_shifted_sets(self, rng):
        a = rng.standard_normal((128, 3))
        b = a + 5.0
        assert energy_distance(a, b) > 1.0

    def test_symmetric(self, rng):
        a = rng.standard_normal((50, 2))
        b = rng.standard_normal((60, 2)) + 0.3
        assert energy_distance(a, b) == pytest.approx(energy_distance(b, a))

    def test_closer_distributions_score_lower(self, rng):
        a = rng.standard_normal((200, 2))
        near = rng.standard_normal((200, 2)) + 0.1
        far = rng.standard_normal((200, 2)) + 2.0
        assert energy_distance(a, near) < energy_distance(a, far)

    def test_subsampling_is_deterministic(self, rng):
        # both over the 2000-row cap
        a = rng.standard_normal((2100, 2))
        b = rng.standard_normal((2007, 2))
        x = energy_distance(a, b)
        y = energy_distance(a, b)
        assert x == y

    def test_bad_inputs(self, rng):
        with pytest.raises(ParameterError):
            energy_distance(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            energy_distance(np.zeros((3, 2)), np.zeros((3, 4)))
        with pytest.raises(ParameterError):
            prepare_reference(np.zeros((0, 2)))
        with pytest.raises(ParameterError):
            energy_distance(np.zeros((3, 2)), prepare_reference(np.zeros((3, 4))))
        # a non-finite point made the distance NaN, and in a reference
        # the self-term
        for value in (np.nan, np.inf, -np.inf):
            bad = rng.standard_normal((6, 2))
            bad[3, 1] = value
            good = rng.standard_normal((5, 2))
            with pytest.raises(ValidationError, match="finite"):
                energy_distance(bad, good)
            with pytest.raises(ValidationError, match="finite"):
                energy_distance(good, bad)
            with pytest.raises(ValidationError, match="finite"):
                prepare_reference(bad)

    # each set is capped at 2000 rows
    @pytest.mark.parametrize("n_a,n_b", [(120, 2000), (120, 2050),
                                         (2001, 150), (2010, 2100)],
                             ids=["both-under-cap", "b-over-cap",
                                  "a-over-cap", "both-over-cap"])
    def test_prepared_reference_is_bitwise_equal(self, rng, n_a, n_b):
        a = rng.standard_normal((n_a, 2))
        b = rng.standard_normal((n_b, 2)) + 0.2
        ref = prepare_reference(b)
        assert energy_distance(a, ref) == energy_distance(a, b)

    def test_prepared_reference_owns_its_points(self, rng):
        a = rng.standard_normal((12, 2))
        b = rng.standard_normal((50, 2))
        ref = prepare_reference(b)
        expected = energy_distance(a, b)
        b += 1.0
        assert energy_distance(a, ref) == expected

    # (512, 2000) and (512, 512) are the search's two fills, (2000, 2000)
    # the default reference's self-term; (129, 2000) and (777, 333) cut
    # leaves inside a row.  A change to NumPy's summation order fails here.
    @pytest.mark.parametrize("n_x,n_y", [(1, 1), (1, 40), (7, 5), (33, 1),
                                         (513, 31), (512, 2000), (512, 512),
                                         (2000, 2000), (129, 2000),
                                         (777, 333)])
    def test_fill_is_bitwise_cdist_mean(self, rng, n_x, n_y):
        x = rng.standard_normal((n_x, 3))
        y = rng.standard_normal((n_y, 3)) + 0.5
        assert _mean_dists((x, y)) == [cdist(x, y).mean()]
        assert _mean_dists((x, y), (y, x), (x, x)) == \
            [cdist(x, y).mean(), cdist(y, x).mean(), cdist(x, x).mean()]

    @pytest.mark.parametrize("rows", [1, 3])
    def test_short_leaves_are_bitwise_cdist_mean(self, rng, monkeypatch,
                                                 rows):
        # leaves shorter than NumPy's 128-element unrolled run
        import nimatrix.search as searchmod
        monkeypatch.setattr(searchmod, "_ROWS", rows)
        for n_x, n_y in ((200, 1), (97, 40), (300, 17), (65, 70), (33, 9)):
            x = rng.standard_normal((n_x, 3))
            y = rng.standard_normal((n_y, 3))
            assert _mean_dists((x, y)) == [cdist(x, y).mean()]

    def test_fill_makes_no_full_buffer(self, rng, monkeypatch):
        # every cdist call fills at most _ROWS + 1 rows of one block
        import nimatrix.search as searchmod
        blocks = []

        def recording_cdist(x, y):
            blocks.append(x.shape[0])
            return cdist(x, y)

        monkeypatch.setattr(searchmod, "cdist", recording_cdist)
        x = rng.standard_normal((777, 2))
        y = rng.standard_normal((333, 2))
        assert _mean_dists((x, y)) == [cdist(x, y).mean()]
        assert max(blocks) <= searchmod._ROWS + 1
        assert sum(blocks) < x.shape[0] + len(blocks)

    def test_fill_does_not_wait_for_a_busy_worker(self, rng):
        # the caller fills every block itself and cancels the queued helper
        from nimatrix._pool import _worker
        release = threading.Event()
        busy = _worker.submit(release.wait, 30.0)
        try:
            x = rng.standard_normal((300, 2))
            y = rng.standard_normal((70, 2))
            assert _mean_dists((x, y)) == [cdist(x, y).mean()]
            assert not busy.done()
        finally:
            release.set()
        assert busy.result(timeout=30.0) is True

    def test_concurrent_fills_are_bitwise(self, rng, monkeypatch):
        # one-row blocks, more callers than cores and a short switch
        # interval: a block skipped or filled twice breaks the equality
        import nimatrix.search as searchmod
        monkeypatch.setattr(searchmod, "_ROWS", 1)
        sets = [(rng.standard_normal((n, 3)), rng.standard_normal((40, 3)))
                for n in (33, 64, 65, 97)]
        expected = [cdist(x, y).mean() for x, y in sets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda xy: [_mean_dists(xy, xy)
                                                   for _ in range(20)], xy)
                           for xy in sets]
                got = [f.result(timeout=60.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for values, want in zip(got, expected):
            assert values == [[want, want]] * 20

    @staticmethod
    def _one_thread(a, b):
        # the energy distance as three single-threaded cdist means
        rng = np.random.default_rng(0)
        if a.shape[0] > 2000:
            a = a[rng.choice(a.shape[0], 2000, replace=False)]
        if b.shape[0] > 2000:
            b = b[rng.choice(b.shape[0], 2000, replace=False)]
        return float(2.0 * cdist(a, b).mean() - cdist(a, a).mean()
                     - cdist(b, b).mean())

    # each set is capped at 2000 rows
    @pytest.mark.parametrize("n_a,n_b", [(1, 9), (13, 1999), (2001, 2050),
                                         (2045, 7)],
                             ids=["one-row", "odd-under-cap", "a-over-cap",
                                  "a-over-cap-b-odd"])
    def test_energy_distance_is_bitwise_one_thread(self, rng, n_a, n_b):
        a = rng.standard_normal((n_a, 2))
        b = rng.standard_normal((n_b, 2)) + 0.2
        expected = self._one_thread(a, b)
        assert energy_distance(a, b) == expected
        assert energy_distance(a, prepare_reference(b)) == expected

    @pytest.mark.parametrize("n_b", [1, 19, 51, 2000, 2001])
    def test_prepared_self_term_is_bitwise_cdist_mean(self, rng, n_b):
        ref = prepare_reference(rng.standard_normal((n_b, 2)))
        sub = ref.subsample
        assert sub.shape[0] == min(n_b, 2000)
        assert ref.self_term == cdist(sub, sub).mean()

    def test_full_size_self_term_is_bitwise_cdist_mean(self, rng):
        # the CLI's 2048-point default reference, scored on 2000 points
        ref = prepare_reference(rng.standard_normal((2048, 2)))
        sub = ref.subsample
        assert sub.shape[0] == 2000
        assert ref.self_term == cdist(sub, sub).mean()


class _FailAfter:
    """Delegates ``calls`` predictor calls to ``pred``, then raises ``exc``."""

    def __init__(self, pred, calls, exc):
        self.pred, self.d, self.calls, self.exc = pred, pred.d, calls, exc

    def __call__(self, t, x):
        if self.calls == 0:
            raise self.exc
        self.calls -= 1
        return self.pred(t, x)


class _Counting:
    """Delegates to ``pred`` and counts the calls."""

    def __init__(self, pred):
        self.pred, self.d, self.calls = pred, pred.d, 0

    def __call__(self, t, x):
        self.calls += 1
        return self.pred(t, x)


class _NanAfter:
    """Delegates ``calls`` predictor calls to ``pred``, then returns NaN."""

    def __init__(self, pred, calls):
        self.pred, self.d, self.calls = pred, pred.d, calls

    def __call__(self, t, x):
        if self.calls == 0:
            return np.full(np.shape(x), np.nan)
        self.calls -= 1
        return self.pred(t, x)


@pytest.fixture()
def ddim5():
    return trace_sampler(SamplerSpec(kind="ddim"), n_evals=5)


class TestSearchSpace:
    def test_free_entries_stay_left_of_diagonal(self, ddim5):
        space = SearchSpace(base=ddim5, band=2)
        for i, j in space.free_entries():
            assert 1 <= i < ddim5.n_rows
            assert j < min(i, ddim5.n_evals)

    def test_targets_default_to_base_sums(self, ddim5):
        space = SearchSpace(base=ddim5)
        assert np.allclose(space.targets, ddim5.signal.sum(axis=1))

    def test_bad_parameters(self, ddim5):
        with pytest.raises(ParameterError):
            SearchSpace(base=ddim5, band=0)


class TestOptimize:
    def test_zero_budget_returns_start(self, ddim5, ring_gmm):
        pred = make_predictor(ring_gmm, ddim5.schedule())
        space = SearchSpace(base=ddim5)
        res = optimize_matrix(space, pred, np.zeros((10, 2)), budget=0)
        assert res.evaluations == 0
        assert np.allclose(res.best.signal, ddim5.signal)

    def test_trace_is_monotone_and_improves(self, ddim5, ring_gmm):
        pred = make_predictor(ring_gmm, ddim5.schedule())
        rng = np.random.default_rng(3)
        comp = rng.integers(8, size=512)
        ref = (ring_gmm.means[comp]
               + np.sqrt(0.02) * rng.standard_normal((512, 2)))
        space = SearchSpace(base=ddim5, band=3)
        res = optimize_matrix(space, pred, ref, budget=120, seed=0,
                              n_samples=128)
        tr = res.objective_trace
        assert res.evaluations == 120
        assert all(b <= a for a, b in zip(tr, tr[1:]))
        assert tr[-1] < tr[0]

    def test_row_sums_preserved(self, ddim5, ring_gmm):
        pred = make_predictor(ring_gmm, ddim5.schedule())
        space = SearchSpace(base=ddim5, band=2)
        res = optimize_matrix(space, pred, np.zeros((16, 2)), budget=40,
                              n_samples=64)
        assert np.allclose(res.best.signal.sum(axis=1), space.targets,
                           atol=1e-9)

    def test_candidates_change_only_the_edited_row(self, ddim5, ring_gmm,
                                                   monkeypatch):
        # every candidate is the current matrix (the start or an earlier
        # candidate) with one row edited and rescaled; the others are
        # bitwise unchanged
        import nimatrix.search as searchmod
        seen = []

        def recording_run(cfg):
            seen.append(cfg.matrix.signal)
            return run_matrix(cfg)

        def recording_play(m, *args):
            seen.append(m.signal)
            return _play(m, *args)

        monkeypatch.setattr(searchmod, "run_matrix", recording_run)
        monkeypatch.setattr(searchmod, "_play", recording_play)
        pred = make_predictor(ring_gmm, ddim5.schedule())
        ref = ring_gmm.means[np.arange(64) % 8]
        res = optimize_matrix(SearchSpace(base=ddim5), pred, ref, budget=40,
                              seed=1, n_samples=64)
        assert len(seen) == res.evaluations == 40
        assert np.array_equal(seen[0], ddim5.signal)
        for k, cand in enumerate(seen[1:], start=1):
            changed = [np.any(cand != prev, axis=1).sum() for prev in seen[:k]]
            assert min(changed) <= 1

    def test_replays_are_bitwise_full_runs(self, ddim5, ring_gmm,
                                           monkeypatch):
        # a candidate replayed from its edited row gives the samples of a
        # full run of that candidate, accepted or not
        import nimatrix.search as searchmod
        pred = make_predictor(ring_gmm, ddim5.schedule())
        starts = []

        def checked_play(m, p, draws, outputs, states, start):
            starts.append(start)
            samples = _play(m, p, draws, outputs, states, start)
            full = run_matrix(RunConfig(matrix=m, predictor=pred, n=64,
                                        seed=3)).samples
            assert np.array_equal(samples, full)
            return samples

        monkeypatch.setattr(searchmod, "_play", checked_play)
        rng = np.random.default_rng(5)
        ref = (ring_gmm.means[rng.integers(8, size=256)]
               + np.sqrt(0.02) * rng.standard_normal((256, 2)))
        res = optimize_matrix(SearchSpace(base=ddim5), pred, ref, budget=60,
                              seed=3, n_samples=64)
        assert len(starts) == 59
        assert set(starts) == set(range(1, ddim5.n_evals + 1))
        assert len(set(res.objective_trace)) > 1  # some candidate accepted

    def test_replays_of_a_carried_matrix_are_bitwise_full_runs(
            self, ring_gmm, monkeypatch):
        # ddpm-60 plays its rows carried (a * previous state plus new
        # columns); a replay's output and state buffers, rows before its
        # start included, are those of a full run
        import nimatrix.search as searchmod
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=60)
        pred = make_predictor(ring_gmm, m.schedule())
        starts = []

        def checked_play(m, p, draws, outputs, states, start):
            if any(row.carry for row in _plan(m, start)):
                starts.append(start)
            samples = _play(m, p, draws, outputs, states, start)
            full = run_matrix(RunConfig(matrix=m, predictor=pred, n=32,
                                        seed=2))
            assert np.array_equal(samples, full.samples)
            assert np.array_equal(outputs.reshape(full.trajectory.shape),
                                  full.trajectory)
            assert np.array_equal(states.reshape(full.states.shape),
                                  full.states)
            return samples

        monkeypatch.setattr(searchmod, "_play", checked_play)
        rng = np.random.default_rng(6)
        ref = (ring_gmm.means[rng.integers(8, size=256)]
               + np.sqrt(0.02) * rng.standard_normal((256, 2)))
        res = optimize_matrix(SearchSpace(base=m), pred, ref, budget=40,
                              seed=2, n_samples=32)
        assert len(starts) > 20
        assert len(set(res.objective_trace)) > 1  # some candidate accepted

    def test_negative_budget_rejected(self, ddim5, ring_gmm):
        pred = make_predictor(ring_gmm, ddim5.schedule())
        with pytest.raises(ParameterError):
            optimize_matrix(SearchSpace(base=ddim5), pred,
                            np.zeros((4, 2)), budget=-1)

    @pytest.mark.parametrize("budget,n_samples", [
        pytest.param(10, 0, id="0"),
        pytest.param(10, -1, id="-1"),
        pytest.param(0, 0, id="budget0")])
    def test_bad_sample_count_rejected_before_any_call(self, ddim5, ring_gmm,
                                                       budget, n_samples):
        # a zero budget makes no run, so only an up-front check sees these
        pred = _Counting(make_predictor(ring_gmm, ddim5.schedule()))
        with pytest.raises(ParameterError):
            optimize_matrix(SearchSpace(base=ddim5), pred, np.zeros((4, 2)),
                            budget=budget, n_samples=n_samples)
        assert pred.calls == 0

    def test_candidates_call_the_predictor_from_their_edited_row(
            self, ddim5, ring_gmm, monkeypatch):
        # a candidate editing row i calls the predictor n_evals - i times,
        # so a terminal-row edit calls it no times
        import nimatrix.search as searchmod
        pred = _Counting(make_predictor(ring_gmm, ddim5.schedule()))
        per_play = []

        def counted_play(m, p, draws, outputs, states, start):
            before = pred.calls
            samples = _play(m, p, draws, outputs, states, start)
            per_play.append((start, pred.calls - before))
            return samples

        monkeypatch.setattr(searchmod, "_play", counted_play)
        ref = ring_gmm.means[np.arange(64) % 8]
        optimize_matrix(SearchSpace(base=ddim5), pred, ref, budget=40,
                        seed=1, n_samples=32)
        assert len(per_play) == 39
        assert (ddim5.n_evals, 0) in per_play
        assert all(calls == ddim5.n_evals - start for start, calls in per_play)
        assert pred.calls == ddim5.n_evals + sum(c for _, c in per_play)

    def test_search_makes_a_third_of_the_full_run_calls(self, ddim5,
                                                        ring_gmm):
        pred = _Counting(make_predictor(ring_gmm, ddim5.schedule()))
        rng = np.random.default_rng(7)
        ref = (ring_gmm.means[rng.integers(8, size=512)]
               + np.sqrt(0.02) * rng.standard_normal((512, 2)))
        res = optimize_matrix(SearchSpace(base=ddim5, band=3), pred, ref,
                              budget=400, seed=7, n_samples=128)
        assert res.evaluations == 400
        assert 3 * pred.calls <= res.evaluations * ddim5.n_evals

    def test_best_objective_rescores_exactly(self, ddim5, ring_gmm):
        # 2048 points exceed the default 2000-row cap, as in the CLI.
        pred = make_predictor(ring_gmm, ddim5.schedule())
        rng = np.random.default_rng(4)
        comp = rng.integers(8, size=2048)
        ref = (ring_gmm.means[comp]
               + np.sqrt(0.02) * rng.standard_normal((2048, 2)))
        res = optimize_matrix(SearchSpace(base=ddim5), pred, ref, budget=12,
                              seed=2, n_samples=128)
        samples = run_matrix(RunConfig(matrix=res.best, predictor=pred,
                                       n=128, seed=2)).samples
        assert res.best_objective == energy_distance(samples, ref)

    def test_package_error_is_charged_and_skipped(self, ddim5, ring_gmm):
        pred = _FailAfter(make_predictor(ring_gmm, ddim5.schedule()),
                          ddim5.n_evals, ValidationError("bad state"))
        logged = []
        res = optimize_matrix(SearchSpace(base=ddim5), pred, np.zeros((16, 2)),
                              budget=6, n_samples=32, log=logged.append)
        assert res.evaluations == 6
        assert len(res.objective_trace) == 1
        assert len(logged) == 5 and "bad state" in logged[0]

    def test_failing_predictor_charges_only_replaying_candidates(
            self, ddim5, ring_gmm, monkeypatch):
        # once the predictor fails, a candidate that replays a row is
        # charged and logged, and a terminal-row candidate is still scored
        import nimatrix.search as searchmod
        pred = _FailAfter(make_predictor(ring_gmm, ddim5.schedule()),
                          ddim5.n_evals, ValidationError("bad state"))
        starts = []

        def recording_play(m, p, draws, outputs, states, start):
            starts.append(start)
            return _play(m, p, draws, outputs, states, start)

        monkeypatch.setattr(searchmod, "_play", recording_play)
        logged = []
        res = optimize_matrix(SearchSpace(base=ddim5), pred, np.zeros((16, 2)),
                              budget=30, n_samples=32, log=logged.append)
        terminal = starts.count(ddim5.n_evals)
        assert res.evaluations == 30 and len(starts) == 29
        assert 0 < terminal < 29
        assert len(res.objective_trace) == 1 + terminal
        assert len(logged) == 29 - terminal
        assert all("bad state" in msg for msg in logged)

    def test_non_finite_prediction_is_charged_and_skipped(self, ddim5,
                                                          ring_gmm):
        pred = _NanAfter(make_predictor(ring_gmm, ddim5.schedule()),
                         ddim5.n_evals)
        logged = []
        res = optimize_matrix(SearchSpace(base=ddim5), pred, np.zeros((16, 2)),
                              budget=6, n_samples=32, log=logged.append)
        assert res.evaluations == 6
        assert len(res.objective_trace) == 1
        assert np.isfinite(res.best_objective)
        assert len(logged) == 5 and "non-finite" in logged[0]

    def test_non_finite_reference_rejected_before_any_call(self, ddim5,
                                                           ring_gmm):
        # it made an all-NaN trace that kept the start matrix
        pred = _Counting(make_predictor(ring_gmm, ddim5.schedule()))
        ref = np.zeros((16, 2))
        ref[5, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            optimize_matrix(SearchSpace(base=ddim5), pred, ref, budget=6,
                            n_samples=32)
        assert pred.calls == 0

    def test_other_errors_propagate(self, ddim5, ring_gmm):
        pred = _FailAfter(make_predictor(ring_gmm, ddim5.schedule()),
                          ddim5.n_evals, TypeError("bug"))
        with pytest.raises(TypeError):
            optimize_matrix(SearchSpace(base=ddim5), pred, np.zeros((16, 2)),
                            budget=6, n_samples=32)
