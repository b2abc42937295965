import hashlib
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from nimatrix import _pool, oracles
from nimatrix.analysis import degradation_table
from nimatrix.errors import (FormatError, NumericError, ParameterError,
                             ValidationError)
from nimatrix.oracles import (Dataset, GaussianMixture,
                              gmm_marginal_logdensity, load_dataset,
                              load_dataset_csv, load_mixture, make_predictor,
                              posterior_mean_dataset, posterior_mean_gmm,
                              posterior_top, posterior_weights,
                              save_dataset, score_from_x0hat)
from nimatrix.schedule import make_flow, make_vp_linear, mixing_coeffs


def reference_weights(atoms, s, t, x):
    """Brute-force log-domain posterior weights in extended precision:
    direct squared distances to ``x / c0``, max-shifted log-softmax."""
    c0, c1 = mixing_coeffs(s, t)
    a = np.asarray(atoms, dtype=np.longdouble)
    mu = np.atleast_2d(np.asarray(x, dtype=np.longdouble)) / c0
    sigma2 = (np.longdouble(c1) / c0) ** 2
    logits = -((mu[:, None, :] - a[None, :, :]) ** 2).sum(-1) / (2 * sigma2)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def assert_matches_reference(ds, s, t, x):
    want_w = reference_weights(ds.atoms, s, t, x)
    want_m = want_w @ np.asarray(ds.atoms, dtype=np.longdouble)
    w = posterior_weights(ds, s, t, x)
    m = posterior_mean_dataset(ds, s, t, x)
    assert np.isfinite(w).all() and np.isfinite(m).all()
    assert float(np.abs(w - want_w).max()) <= 1e-12
    assert float(np.abs(m - want_m).max()) <= 1e-12 * float(np.abs(want_m).max())
    return w


extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="the reference needs a long double wider than float64")


def reference_mixture(g, s, t, x):
    """Brute-force posterior mean and log-density under a mixture in
    extended precision: direct squared distances to ``c0 m_k``, the
    per-component conjugate means, max-shifted log-domain weights."""
    c0, c1 = (np.longdouble(c) for c in mixing_coeffs(s, t))
    m = np.asarray(g.means, dtype=np.longdouble)
    v = np.asarray(g.variances, dtype=np.longdouble)
    x = np.atleast_2d(np.asarray(x, dtype=np.longdouble))
    tot = c0 * c0 * v + c1 * c1
    diff = x[:, None, :] - c0 * m[None, :, :]
    logits = (np.log(np.asarray(g.weights, dtype=np.longdouble))
              - 0.5 * g.d * np.log(tot) - (diff ** 2).sum(-1) / (2 * tot))
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    z = e.sum(axis=1, keepdims=True)
    comp = m[None, :, :] + (c0 * v / tot)[None, :, None] * diff
    mean = (e[:, :, None] * comp).sum(axis=1) / z
    log_2pi = np.log(2 * np.longdouble(np.pi))
    logp = (top + np.log(z))[:, 0] - 0.5 * g.d * log_2pi
    return mean, logp


def uneven_mixture(k, d, seed=3):
    """A mixture with unequal weights and variances."""
    r = np.random.default_rng(seed)
    w = r.uniform(0.5, 1.5, k)
    return GaussianMixture(weights=w / w.sum(),
                           means=2.0 * r.standard_normal((k, d)),
                           variances=r.uniform(0.01, 1.0, k))


MIXTURE_SHAPES = [(512, 8, 2), (16, 8, 64)]  # (b, k, d)
MIXTURE_TIMES = [(make_vp_linear(), t) for t in (999, 500, 100, 10, 0)] + [
    (make_flow(), t) for t in (1.0, 0.9, 0.5, 0.1, 0.0)]


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Dataset(atoms=np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            Dataset(atoms=np.array([[np.inf]]))
        with pytest.raises(ValidationError):
            Dataset(atoms=np.zeros((3, 2)), labels=np.zeros(2))

    def test_subset(self, small_dataset):
        sub = small_dataset.subset(1)
        assert np.all(sub.labels == 1)
        with pytest.raises(ParameterError):
            small_dataset.subset(99)

    def test_roundtrip(self, small_dataset, tmp_path):
        p = tmp_path / "d.bin"
        save_dataset(small_dataset, p)
        ds = load_dataset(p)
        assert np.array_equal(ds.atoms, small_dataset.atoms)
        assert np.array_equal(ds.labels, small_dataset.labels)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"HELLO")
        with pytest.raises(FormatError):
            load_dataset(p)

    def test_malformed_csv_is_format_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,abc\n")
        with pytest.raises(FormatError):
            load_dataset_csv(p)

    def test_truncated(self, tmp_path, small_dataset):
        p = tmp_path / "d.bin"
        save_dataset(small_dataset, p)
        p.write_bytes(p.read_bytes()[:40])
        with pytest.raises(FormatError):
            load_dataset(p)


class TestPosteriorWeights:
    def test_weights_normalize(self, small_dataset, vp, rng):
        x = rng.standard_normal(small_dataset.d)
        w = posterior_weights(small_dataset, vp, 300, x)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)

    def test_zero_signal_is_uniform(self, small_dataset, flow, rng):
        x = rng.standard_normal(small_dataset.d)
        w = posterior_weights(small_dataset, flow, 1.0, x)
        n = small_dataset.n
        assert np.array_equal(w, np.full(n, 1.0 / n))

    def test_zero_noise_is_one_hot(self, small_dataset, flow):
        x = small_dataset.atoms[4].copy()
        w = posterior_weights(small_dataset, flow, 0.0, x)
        assert w[4] == 1.0 and w.sum() == 1.0

    def test_no_underflow_at_tiny_noise(self, small_dataset, flow):
        x = 0.999 * small_dataset.atoms[0]
        w = posterior_weights(small_dataset, flow, 0.001, x)
        assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0)


class TestPosteriorKernel:
    def test_tiny_noise_matches_reference(self, small_dataset, flow, rng):
        # c0/c1^2 is about 1e6 here: the logits reach the millions and
        # only the max subtraction keeps the exponentials finite.
        t = 1e-3
        c0, c1 = mixing_coeffs(flow, t)
        idx = rng.integers(small_dataset.n, size=16)
        x = (c0 * small_dataset.atoms[idx]
             + c1 * rng.standard_normal((16, small_dataset.d)))
        w = assert_matches_reference(small_dataset, flow, t, x)
        assert np.array_equal(np.argmax(w, axis=1), idx)

    @extended_precision
    def test_far_state_matches_reference(self, small_dataset, flow, rng):
        # |x| = 1e3 at c0 = 1e-3 puts x / c0 at 1e6: the expanded form
        # |x / c0|^2 + |a|^2 - 2 x.a / c0 cancels and misses the weights
        # by about 1e-11; the kernel never forms |x / c0|^2.
        t = 0.999
        x = rng.standard_normal((8, small_dataset.d))
        x *= 1e3 / np.linalg.norm(x, axis=1, keepdims=True)
        w = assert_matches_reference(small_dataset, flow, t, x)
        assert w.max() < 0.9  # a spread posterior, not a trivial one-hot

    def test_batch_matches_single(self, small_dataset, vp, rng):
        xb = rng.standard_normal((6, small_dataset.d))
        w = posterior_weights(small_dataset, vp, 300, xb)
        m = posterior_mean_dataset(small_dataset, vp, 300, xb)
        for i in range(6):
            np.testing.assert_allclose(
                w[i], posterior_weights(small_dataset, vp, 300, xb[i]),
                rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(
                m[i], posterior_mean_dataset(small_dataset, vp, 300, xb[i]),
                rtol=1e-12, atol=1e-300)

    def test_subset_caches_its_own_norms(self, small_dataset):
        sub = small_dataset.subset(1)
        assert sub.half_sqnorms.shape == (sub.n,)
        np.testing.assert_allclose(sub.half_sqnorms,
                                   0.5 * (sub.atoms ** 2).sum(axis=1),
                                   rtol=1e-15)


class TestPosteriorMeans:
    def test_dataset_mean_in_hull(self, small_dataset, vp, rng):
        x = rng.standard_normal(small_dataset.d)
        m = posterior_mean_dataset(small_dataset, vp, 500, x)
        lo = small_dataset.atoms.min(axis=0)
        hi = small_dataset.atoms.max(axis=0)
        assert np.all(m >= lo - 1e-9) and np.all(m <= hi + 1e-9)

    def test_gmm_single_component_closed_form(self, vp, rng):
        # one component: posterior mean = m + c0 v/(c0^2 v + c1^2)(x - c0 m)
        g = GaussianMixture(weights=[1.0], means=rng.standard_normal((1, 5)),
                            variances=[0.7])
        from nimatrix.schedule import mixing_coeffs
        x = rng.standard_normal(5)
        c0, c1 = mixing_coeffs(vp, 400)
        tot = c0 * c0 * 0.7 + c1 * c1
        want = g.means[0] + c0 * 0.7 / tot * (x - c0 * g.means[0])
        got = posterior_mean_gmm(g, vp, 400, x)
        assert np.allclose(got, want, atol=1e-12)

    def test_gmm_pure_noise_returns_prior_mean(self, flow, gmm16):
        x = np.zeros(16) + 3.0
        got = posterior_mean_gmm(gmm16, flow, 1.0, x)
        want = gmm16.weights @ gmm16.means
        assert np.allclose(got, want, atol=1e-12)

    def test_batch_matches_single(self, gmm16, vp, rng):
        xb = rng.standard_normal((6, 16))
        got = posterior_mean_gmm(gmm16, vp, 300, xb)
        for i in range(6):
            assert np.allclose(got[i],
                               posterior_mean_gmm(gmm16, vp, 300, xb[i]),
                               atol=1e-12)


class TestMixtureKernel:
    @extended_precision
    @pytest.mark.parametrize("scale,tol", [(1.0, 1e-13), (100.0, 1e-10)])
    @pytest.mark.parametrize("b,k,d", MIXTURE_SHAPES)
    def test_matches_reference(self, b, k, d, scale, tol):
        # unequal variances make |x|^2 / (2 tot_k) differ per component;
        # at |x| x 100 that term dominates the logits and cancels
        g = uneven_mixture(k, d)
        x = scale * np.random.default_rng(5).standard_normal((b, d))
        for s, t in MIXTURE_TIMES:
            want_m, want_l = reference_mixture(g, s, t, x)
            got_m = posterior_mean_gmm(g, s, t, x)
            got_l = gmm_marginal_logdensity(g, s, t, x)
            err = (np.linalg.norm((got_m - want_m).astype(np.float64), axis=1)
                   / np.linalg.norm(want_m.astype(np.float64), axis=1))
            assert err.max() <= tol, (s.family, t)
            assert float(np.abs((got_l - want_l) / want_l).max()) <= 1e-13

    @pytest.mark.parametrize("b,k,d", MIXTURE_SHAPES)
    def test_logdensity_matches_scipy(self, b, k, d):
        g = uneven_mixture(k, d)
        x = np.random.default_rng(6).standard_normal((b, d))
        for s, t in MIXTURE_TIMES:
            c0, c1 = mixing_coeffs(s, t)
            comps = [np.log(w) + multivariate_normal.logpdf(
                         x, c0 * m, (c0 * c0 * v + c1 * c1) * np.eye(d))
                     for w, m, v in zip(g.weights, g.means, g.variances)]
            want = logsumexp(np.stack(comps, axis=1), axis=1)
            np.testing.assert_allclose(gmm_marginal_logdensity(g, s, t, x),
                                       want, rtol=1e-12)
            assert gmm_marginal_logdensity(g, s, t, x[0]) == pytest.approx(
                want[0], rel=1e-12)

    def test_flow_t0_closed_form(self, flow):
        # no noise: the state is x0 itself
        g = uneven_mixture(8, 3)
        x = np.random.default_rng(7).standard_normal((32, 3))
        np.testing.assert_allclose(posterior_mean_gmm(g, flow, 0.0, x), x,
                                   rtol=1e-15, atol=0.0)


class TestScore:
    def test_score_matches_density_gradient(self, gmm16, vp, rng):
        x = rng.standard_normal(16)
        t = 350
        y = posterior_mean_gmm(gmm16, vp, t, x)
        sc = score_from_x0hat(vp, t, x, y)
        h = 1e-5
        for j in range(0, 16, 5):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (gmm_marginal_logdensity(gmm16, vp, t, xp)
                  - gmm_marginal_logdensity(gmm16, vp, t, xm)) / (2 * h)
            assert sc[j] == pytest.approx(fd, abs=1e-4)


#: Batch sizes around the 64-row blocks: one call below 128 rows, the
#: remainder merged into the last block above.
SPLIT_B = [1, 2, 63, 64, 65, 127, 128, 129, 500]
#: Times across both families, including c0 = 0 (flow t = 1) and
#: c1 = 0 (flow t = 0).
SPLIT_TIMES = [("vp", 999), ("vp", 500), ("vp", 100), ("vp", 10), ("vp", 0),
               ("flow", 1.0), ("flow", 0.5), ("flow", 0.05), ("flow", 0.0)]


@pytest.fixture(scope="module")
def wide_dataset():
    # 1000 atoms in 64-D: both are multiples of OpenBLAS's register tiles,
    # so a GEMM rounds each row of a block as it rounds that row of the
    # batch (at 500 atoms in 16-D, AVX-512 OpenBLAS does not)
    return Dataset(atoms=np.random.default_rng(5).standard_normal((1000, 64)))


def _states(ds, s, t, b):
    """Forward states from b random atoms, so the posteriors are spread."""
    r = np.random.default_rng(b)
    c0, c1 = mixing_coeffs(s, t)
    return (c0 * ds.atoms[r.integers(ds.n, size=b)]
            + c1 * r.standard_normal((b, ds.d)))


def _blas_threads(monkeypatch, threads, cpus=2):
    """Make the oracle read ``threads`` BLAS threads (None: unreadable)
    and ``cpus`` CPUs in its affinity, whatever this process has."""
    query = None if threads is None else (lambda: threads)
    monkeypatch.setattr(oracles, "_blas_query", lambda: query)
    monkeypatch.setattr(oracles.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _spy_blocks(monkeypatch):
    """Record the (start, stop) rows of every split the oracle runs."""
    seen = []

    def spy(fn, blocks):
        seen.append([(r.start, r.stop) for r in blocks])
        _pool.run_blocks(fn, blocks)

    monkeypatch.setattr(oracles, "run_blocks", spy)
    return seen


class _NoWorker:
    def submit(self, *args, **kwargs):
        raise AssertionError("work was submitted to the worker thread")


class TestRowBlockSplit:
    @pytest.mark.parametrize("fn", [posterior_weights, posterior_mean_dataset],
                             ids=["weights", "mean"])
    @pytest.mark.parametrize("b", SPLIT_B)
    def test_split_is_bitwise_one_call(self, monkeypatch, wide_dataset, vp,
                                       flow, fn, b):
        seen = _spy_blocks(monkeypatch)
        for family, t in SPLIT_TIMES:
            s = vp if family == "vp" else flow
            x = _states(wide_dataset, s, t, b)
            _blas_threads(monkeypatch, 2)
            want = fn(wide_dataset, s, t, x)
            _blas_threads(monkeypatch, 1)
            assert np.array_equal(fn(wide_dataset, s, t, x), want), (family, t)
        assert len(seen) == (len(SPLIT_TIMES) if b >= 128 else 0)

    @pytest.mark.parametrize("b", [128, 129, 191, 192, 500])
    def test_blocks_are_64_rows_and_the_last_takes_the_rest(
            self, monkeypatch, wide_dataset, vp, b):
        # a one-row block would run NumPy's GEMV path, which can round
        # differently from the same row of a GEMM
        seen = _spy_blocks(monkeypatch)
        _blas_threads(monkeypatch, 1)
        posterior_weights(wide_dataset, vp, 500, _states(wide_dataset, vp, 500, b))
        starts = list(range(0, b - 127, 64))
        last = starts[-1] + 64
        assert seen == [[(lo, lo + 64) for lo in starts] + [(last, b)]]

    @pytest.mark.parametrize("threads,cpus", [(2, 2), (8, 2), (None, 2),
                                              (1, 1)],
                             ids=["two-threads", "eight-threads",
                                  "unreadable", "one-cpu"])
    def test_one_call_submits_nothing(self, monkeypatch, wide_dataset, vp,
                                      threads, cpus):
        x = _states(wide_dataset, vp, 500, 500)
        monkeypatch.setattr(_pool, "_worker", _NoWorker())
        _blas_threads(monkeypatch, threads, cpus)
        posterior_weights(wide_dataset, vp, 500, x)
        posterior_mean_dataset(wide_dataset, vp, 500, x)
        _blas_threads(monkeypatch, 1)  # the control: the split submits
        with pytest.raises(AssertionError, match="submitted"):
            posterior_weights(wide_dataset, vp, 500, x)

    def test_split_does_not_wait_for_a_busy_worker(self, monkeypatch,
                                                   wide_dataset, vp):
        # the caller runs every block itself and cancels the queued helper
        x = _states(wide_dataset, vp, 300, 500)
        _blas_threads(monkeypatch, 2)
        want_w = posterior_weights(wide_dataset, vp, 300, x)
        want_m = posterior_mean_dataset(wide_dataset, vp, 300, x)
        _blas_threads(monkeypatch, 1)
        release = threading.Event()
        busy = _pool._worker.submit(release.wait, 30.0)
        try:
            assert np.array_equal(posterior_weights(wide_dataset, vp, 300, x),
                                  want_w)
            assert np.array_equal(
                posterior_mean_dataset(wide_dataset, vp, 300, x), want_m)
            assert not busy.done()
        finally:
            release.set()
        assert busy.result(timeout=30.0) is True

    def test_concurrent_splits_are_bitwise(self, monkeypatch, wide_dataset,
                                           vp):
        # more callers than cores share the one worker under a short
        # switch interval: a block skipped or run twice breaks the equality
        xs = [_states(wide_dataset, vp, 400, b) for b in (128, 200, 300, 500)]
        _blas_threads(monkeypatch, 2)
        want = [posterior_mean_dataset(wide_dataset, vp, 400, x) for x in xs]
        _blas_threads(monkeypatch, 1)

        def calls(x):
            return [posterior_mean_dataset(wide_dataset, vp, 400, x)
                    for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(calls, x) for x in xs]
                got = [f.result(timeout=60.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for values, w in zip(got, want):
            assert all(np.array_equal(v, w) for v in values)

    def test_blas_query_reads_the_loaded_library(self):
        query = oracles._blas_query()
        if query is None:
            pytest.skip("NumPy's BLAS exports no OpenBLAS thread query")
        assert query() >= 1
        if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert query() == 1



def _top_of_weights(ds, s, t, x):
    """np.argmax of the posterior weights per state and the weight there."""
    w = np.atleast_2d(posterior_weights(ds, s, t, x))
    top = np.argmax(w, axis=1)
    return top, w[np.arange(top.size), top]


class TestPosteriorTop:
    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    @pytest.mark.parametrize("b", [None, 2, 127, 128, 129, 500],
                             ids=lambda b: "1-D" if b is None else str(b))
    def test_is_argmax_of_the_weights(self, monkeypatch, wide_dataset, vp,
                                      flow, split, b):
        seen = _spy_blocks(monkeypatch)
        _blas_threads(monkeypatch, 1 if split else 2)
        for family, t in SPLIT_TIMES:
            s = vp if family == "vp" else flow
            x = _states(wide_dataset, s, t, b or 1)
            if b is None:
                x = x[0]
            want_top, want_w = _top_of_weights(wide_dataset, s, t, x)
            top, w = posterior_top(wide_dataset, s, t, x)
            assert np.ndim(top) == np.ndim(w) == (0 if b is None else 1)
            assert np.array_equal(np.atleast_1d(top), want_top), (family, t)
            assert np.array_equal(np.atleast_1d(w), want_w), (family, t)
        # the weights and the top atom split alike, once per time
        assert len(seen) == (2 * len(SPLIT_TIMES) if split and b and b >= 128
                             else 0)

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_ties_go_to_the_lowest_index(self, monkeypatch, vp, split):
        # atoms i, i + 250, i + 500 and i + 750 are the same point, so
        # every posterior weight is tied four ways
        base = np.random.default_rng(8).standard_normal((250, 64))
        ds = Dataset(atoms=np.tile(base, (4, 1)))
        _blas_threads(monkeypatch, 1 if split else 2)
        for t in (999, 500, 100, 0):
            x = _states(ds, vp, t, 500)
            top, w = posterior_top(ds, vp, t, x)
            want_top, want_w = _top_of_weights(ds, vp, t, x)
            assert np.array_equal(top, want_top) and np.array_equal(w, want_w)
            assert np.all(top < 250), t
            weights = posterior_weights(ds, vp, t, x)
            rows = np.arange(500)
            assert np.array_equal(weights[rows, top + 750], w), t

    def test_degradation_csv_is_pinned_under_the_split(self, monkeypatch,
                                                       wide_dataset, vp,
                                                       flow):
        # the digest was recorded when the statistic took np.argmax of the
        # full (trials, n) weight buffer; 200 trials run as three blocks
        seen = _spy_blocks(monkeypatch)
        _blas_threads(monkeypatch, 1)
        rep = degradation_table(
            wide_dataset, [vp, flow],
            [[999, 450, 420, 400, 380, 350, 0],
             [1.0, 0.7, 0.66, 0.62, 0.58, 0.0]], trials=200, seed=3)
        assert len(seen) == 13 and all(len(blocks) == 3 for blocks in seen)
        assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == (
            "532548f1cfd8cfaab6f23ef418cdf20c58879d4f2c367fc93156ed9ea82ebb47")


class TestPredictor:
    def test_label_restricts_atoms(self, small_dataset, vp):
        p = make_predictor(small_dataset, vp, label=2)
        assert p.source.n < small_dataset.n

    def test_rejects_other_sources(self, vp):
        with pytest.raises(ParameterError):
            make_predictor([[1.0]], vp)

    def test_label_with_mixture_rejected(self, gmm16, vp):
        # a label selects dataset atoms; a mixture has none to select
        with pytest.raises(ParameterError, match="label"):
            make_predictor(gmm16, vp, label=7)

    @pytest.mark.parametrize("label", [True, 1.0, np.float64(1.0), "1"],
                             ids=["bool", "float", "numpy-float", "string"])
    def test_non_integer_label_rejected(self, small_dataset, vp, label):
        # True and 1.0 compared equal to label 1 and selected its atoms
        with pytest.raises(ParameterError, match="integer label"):
            make_predictor(small_dataset, vp, label=label)

    def test_any_integer_label_accepted(self, vp):
        ds = Dataset(atoms=np.arange(8.0).reshape(4, 2),
                     labels=np.array([-3, 1, -3, 2]))
        for label, n in ((-3, 2), (np.int64(-3), 2), (np.uint8(1), 1)):
            assert make_predictor(ds, vp, label=label).source.n == n

    @pytest.mark.parametrize("source", ["dataset", "mixture"])
    def test_non_finite_state_is_numeric_error(self, small_dataset, vp,
                                               source):
        # both posterior means returned NaN for a NaN state
        ds = small_dataset
        src = ds if source == "dataset" else GaussianMixture(
            weights=[0.5, 0.5], means=ds.atoms[:2], variances=[1.0, 1.0])
        pred = make_predictor(src, vp)
        for bad in (np.full(4, np.nan), np.array([[0.0, 1.0, np.inf, 0.0]])):
            with pytest.raises(NumericError, match="non-finite state"):
                pred(500, bad)

    @pytest.mark.parametrize("source", ["dataset", "mixture"])
    def test_state_of_wrong_width_is_validation_error(self, small_dataset,
                                                      vp, source):
        # a (2, 5) state raised NumPy's matmul ValueError
        ds = small_dataset
        src = ds if source == "dataset" else GaussianMixture(
            weights=[0.5, 0.5], means=ds.atoms[:2], variances=[1.0, 1.0])
        pred = make_predictor(src, vp)
        for shape in ((2, 5), (3,), (), (1, 2, 4)):
            with pytest.raises(ValidationError, match="states, got shape"):
                pred(500, np.zeros(shape))
        assert pred(500, np.zeros((2, 4))).shape == (2, 4)
        assert pred(500, np.zeros(4)).shape == (4,)


class TestMixtureFile:
    def test_roundtrip(self, tmp_path, gmm16):
        import json
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "weights": gmm16.weights.tolist(),
            "means": gmm16.means.tolist(),
            "variances": gmm16.variances.tolist()}))
        g = load_mixture(p)
        assert np.allclose(g.means, gmm16.means)

    def test_malformed(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"weights": [1.0]}')
        with pytest.raises(FormatError):
            load_mixture(p)

    @pytest.mark.parametrize("key,index", [("weights", 0), ("means", 1),
                                           ("variances", 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected_at_load(self, tmp_path, key,
                                                   index, value):
        import json
        spec = {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [1.0, 1.0]],
                "variances": [1.0, 1.0]}
        cell = spec[key][index]
        if isinstance(cell, list):
            cell[0] = value
        else:
            spec[key][index] = value
        p = tmp_path / "g.json"
        p.write_text(json.dumps(spec))
        with pytest.raises(ValidationError, match="non-finite"):
            load_mixture(p)

    def test_non_numeric_entry_is_format_error(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"weights": ["a", 0.5], "means": [[0.0], [1.0]], '
                     '"variances": [1.0, 1.0]}')
        with pytest.raises(FormatError):
            load_mixture(p)
