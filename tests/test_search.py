import numpy as np
import pytest

from nimatrix.coeffmatrix import trace_sampler
from nimatrix.engine import RunConfig, run_matrix
from nimatrix.errors import ParameterError, ValidationError
from nimatrix.oracles import make_predictor
from nimatrix.samplers import SamplerSpec
from nimatrix.search import (SearchSpace, energy_distance, optimize_matrix,
                             prepare_reference)


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
        a = rng.standard_normal((500, 2))
        b = rng.standard_normal((500, 2))
        x = energy_distance(a, b, max_pairs=10_000)
        y = energy_distance(a, b, max_pairs=10_000)
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

    # max_pairs=400 caps each set at 20 rows.
    @pytest.mark.parametrize("n_a,n_b", [(12, 20), (20, 50), (30, 15), (30, 50)],
                             ids=["both-under-cap", "b-over-cap",
                                  "a-over-cap", "both-over-cap"])
    def test_prepared_reference_is_bitwise_equal(self, rng, n_a, n_b):
        a = rng.standard_normal((n_a, 2))
        b = rng.standard_normal((n_b, 2)) + 0.2
        ref = prepare_reference(b, max_pairs=400)
        assert energy_distance(a, ref, max_pairs=400) == \
            energy_distance(a, b, max_pairs=400)

    def test_prepared_reference_for_other_max_pairs_is_rebuilt(self, rng):
        a = rng.standard_normal((12, 2))
        b = rng.standard_normal((50, 2))
        ref = prepare_reference(b, max_pairs=400)
        assert energy_distance(a, ref, max_pairs=900) == \
            energy_distance(a, b, max_pairs=900)

    def test_prepared_reference_owns_its_points(self, rng):
        a = rng.standard_normal((12, 2))
        b = rng.standard_normal((50, 2))
        ref = prepare_reference(b, max_pairs=400)
        expected = energy_distance(a, b, max_pairs=400)
        b += 1.0
        assert energy_distance(a, ref, max_pairs=400) == expected


class _FailAfter:
    """Delegates ``calls`` predictor calls to ``pred``, then raises ``exc``."""

    def __init__(self, pred, calls, exc):
        self.pred, self.d, self.calls, self.exc = pred, pred.d, calls, exc

    def __call__(self, t, x):
        if self.calls == 0:
            raise self.exc
        self.calls -= 1
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
        with pytest.raises(ParameterError):
            SearchSpace(base=ddim5, bounds=(1.0, -1.0))
        with pytest.raises(ValidationError):
            SearchSpace(base=ddim5, targets=np.ones(3))


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

        monkeypatch.setattr(searchmod, "run_matrix", recording_run)
        pred = make_predictor(ring_gmm, ddim5.schedule())
        ref = ring_gmm.means[np.arange(64) % 8]
        optimize_matrix(SearchSpace(base=ddim5), pred, ref, budget=40,
                        seed=1, n_samples=64)
        assert np.array_equal(seen[0], ddim5.signal)
        for k, cand in enumerate(seen[1:], start=1):
            changed = [np.any(cand != prev, axis=1).sum() for prev in seen[:k]]
            assert min(changed) <= 1

    def test_negative_budget_rejected(self, ddim5, ring_gmm):
        pred = make_predictor(ring_gmm, ddim5.schedule())
        with pytest.raises(ParameterError):
            optimize_matrix(SearchSpace(base=ddim5), pred,
                            np.zeros((4, 2)), budget=-1)

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

    def test_other_errors_propagate(self, ddim5, ring_gmm):
        pred = _FailAfter(make_predictor(ring_gmm, ddim5.schedule()),
                          ddim5.n_evals, TypeError("bug"))
        with pytest.raises(TypeError):
            optimize_matrix(SearchSpace(base=ddim5), pred, np.zeros((16, 2)),
                            budget=6, n_samples=32)
