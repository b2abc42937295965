import hashlib
import math
import os
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from nimatrix import _pool, oracles
from nimatrix.analysis import degradation_table
from nimatrix.errors import (FormatError, NimatrixError, NumericError,
                             ParameterError, ValidationError)
from nimatrix.oracles import (Dataset, GaussianMixture, Predictor,
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

    def test_atoms_are_a_copy(self, vp, tmp_path):
        # writing to the caller's array made the posterior mean wrong by
        # up to 3.6, because the half squared norms were cached; a memmap
        # reaches the Dataset as a view, not as the caller's own object
        rng = np.random.default_rng(2)
        m = np.memmap(tmp_path / "a.f8", np.float64, "w+", shape=(50, 4))
        m[:] = rng.standard_normal((50, 4))
        x = np.random.default_rng(3).standard_normal((6, 4))
        for a in (rng.standard_normal((50, 4)), m):
            ds = Dataset(atoms=a)
            want = posterior_mean_dataset(ds, vp, 300, x)
            a *= 3.0
            assert np.array_equal(posterior_mean_dataset(ds, vp, 300, x),
                                  want)
        with pytest.raises(ValueError, match="read-only"):
            ds.half_sqnorms[0] = 0.0

    def test_loaded_atoms_are_writable(self, small_dataset, tmp_path):
        # load_dataset reads the atom block into an array of its own; the
        # Dataset holds its own array, which a caller may edit and save
        # again
        p = tmp_path / "d.bin"
        save_dataset(small_dataset, p)
        atoms = load_dataset(p).atoms
        atoms[0, 0] += 1.0
        save_dataset(Dataset(atoms=atoms), p)
        assert load_dataset(p).atoms[0, 0] == small_dataset.atoms[0, 0] + 1.0

    @pytest.mark.parametrize("blob,message", [
        (b"NIDS", "bad magic"),
        (b"NIDS1\x02\x00\x00\x00\x03", "truncated dataset header"),
        (b"NIDS1" + struct.pack("<II", 2, 3) + bytes(40),
         r"truncated atom block \(need 61 bytes\)"),
        (b"NIDS1" + struct.pack("<II", 2, 3) + bytes(48 + 7),
         "trailing bytes are not a label block"),
        (b"NIDS1" + struct.pack("<II", 2, 3) + bytes(48 + 12),
         "trailing bytes are not a label block"),
    ], ids=["short-magic", "short-header", "short-atoms",
            "odd-labels", "three-labels"])
    def test_load_errors(self, tmp_path, blob, message):
        p = tmp_path / "d.bin"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            load_dataset(p)

    def test_header_past_the_file_allocates_nothing(self, tmp_path):
        # the header is checked against the file's size first: 4e9 x 4e9
        # atoms, or 10**5 x 100 (80 MB, which NumPy could allocate), in a
        # file of 13 + 16 bytes
        p = tmp_path / "d.bin"
        for n, d in ((4_000_000_000, 4_000_000_000), (100_000, 100)):
            p.write_bytes(b"NIDS1" + struct.pack("<II", n, d) + bytes(16))
            tracemalloc.start()
            try:
                with pytest.raises(FormatError, match=(
                        rf"truncated atom block \(need {13 + 8 * n * d} ")):
                    load_dataset(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("n,d", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size_atoms_are_validation_error(self, tmp_path, n, d):
        p = tmp_path / "d.bin"
        p.write_bytes(b"NIDS1" + struct.pack("<II", n, d))
        with pytest.raises(ValidationError, match="non-empty"):
            load_dataset(p)

    def test_labelled_roundtrip_matches_a_whole_file_read(self, tmp_path):
        # the loader before the atoms were read in place: the whole file
        # as bytes, the blocks as views of it
        def whole_file_load(path):
            blob = path.read_bytes()
            n, d = struct.unpack("<II", blob[5:13])
            atoms = np.frombuffer(blob, "<f8", count=n * d, offset=13)
            labels = np.frombuffer(blob[13 + 8 * n * d:], "<u4")
            return atoms.reshape(n, d), labels.astype(np.int64)

        rng = np.random.default_rng(4)
        ds = Dataset(atoms=rng.standard_normal((37, 5)),
                     labels=rng.integers(0, 2 ** 32, 37))
        p = tmp_path / "d.bin"
        save_dataset(ds, p)
        got = load_dataset(p)
        atoms, labels = whole_file_load(p)
        assert got.atoms.dtype == np.float64 and got.atoms.flags.owndata
        assert got.atoms.tobytes() == atoms.tobytes()
        assert got.labels.dtype == labels.dtype
        assert np.array_equal(got.labels, labels)

    @pytest.mark.parametrize("label", [-1, 2 ** 32, 2 ** 32 + 5])
    def test_label_a_file_cannot_hold_is_rejected(self, tmp_path, label):
        # labels are stored as u32: -1 was saved as 4294967295, 2**32 + 5
        # as 5
        ds = Dataset(atoms=np.zeros((3, 2)), labels=[0, label, 7])
        p = tmp_path / "d.bin"
        with pytest.raises(ValidationError, match="labels"):
            save_dataset(ds, p)
        assert not p.exists()

    def test_largest_label_roundtrips(self, tmp_path):
        ds = Dataset(atoms=np.zeros((2, 2)), labels=[0, 2 ** 32 - 1])
        p = tmp_path / "d.bin"
        save_dataset(ds, p)
        assert np.array_equal(load_dataset(p).labels, [0, 2 ** 32 - 1])


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

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("kind", ["weights", "mean", "top"])
    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e-160, 1.2e-154,
                                   1.5e-154])
    def test_vanishing_noise_is_the_nearest_atom(self, monkeypatch, flow, t,
                                                 kind, split):
        # c1^2 is 0 at the first two times (a ZeroDivisionError), and the
        # logits overflow at the other three (NaN and RuntimeWarnings)
        monkeypatch.setattr(oracles, "_split", lambda b: split)
        ds = Dataset(atoms=np.random.default_rng(7).standard_normal((20, 4)))
        x = np.random.default_rng(8).standard_normal((130, 4))
        near = np.argmin(((x[:, None, :] - ds.atoms) ** 2).sum(-1), axis=1)
        if kind == "weights":
            w = posterior_weights(ds, flow, t, x)
            assert np.array_equal(w, np.eye(ds.n)[near])
        elif kind == "mean":
            m = posterior_mean_dataset(ds, flow, t, x)
            assert np.array_equal(m, ds.atoms[near])
        else:
            top, w = posterior_top(ds, flow, t, x)
            assert np.array_equal(top, near) and np.all(w == 1.0)


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

    @pytest.mark.parametrize("t", [999, 500, 1])
    def test_state_whose_square_overflows_is_numeric_error(self, vp, t):
        # |x|^2 overflowed, and both returned NaN
        g = uneven_mixture(2, 3)
        for x in (np.full(3, 1e160), np.array([[0.0, 1.0, 2.0],
                                               [-1e160, 0.0, 0.0]])):
            with pytest.raises(NumericError, match="squared norm"):
                posterior_mean_gmm(g, vp, t, x)
            with pytest.raises(NumericError, match="squared norm"):
                gmm_marginal_logdensity(g, vp, t, x)

    def test_cached_constants_leave_the_outputs_unchanged(self, gmm16, vp,
                                                          flow):
        # the kernel as it was before the mixture cached log w_k and
        # |m_k|^2, taking both on every call; a digest would depend on the
        # BLAS and the exp of the machine
        g, x = gmm16, np.random.default_rng(2).standard_normal((40, 16))
        for s, times in ((vp, (999, 500, 100, 10, 0)),
                         (flow, (1.0, 0.5, 0.05, 0.0))):
            for t in times:
                c0, c1 = mixing_coeffs(s, t)
                v = g.variances
                tot = c0 * c0 * v + c1 * c1
                half_inv = 0.5 / tot
                e = x @ (g.means * (c0 / tot)[:, None]).T
                e += (np.log(g.weights) - 0.5 * g.d * np.log(tot)
                      - (c0 * c0) * half_inv
                      * np.einsum("kd,kd->k", g.means, g.means))
                e -= np.multiply.outer(np.einsum("bd,bd->b", x, x), half_inv)
                z, top = oracles._softmax_rows(e)
                mean = (e @ (g.means * (c1 * c1 / tot)[:, None])
                        + (e @ (c0 * v / tot))[:, None] * x) / z
                logd = ((top + np.log(z))[:, 0]
                        - 0.5 * g.d * np.log(2.0 * np.pi))
                assert np.array_equal(posterior_mean_gmm(g, s, t, x), mean)
                assert np.array_equal(gmm_marginal_logdensity(g, s, t, x),
                                      logd)

    def test_parameters_are_a_copy(self, vp):
        # the mixture caches log w_k and |m_k|^2: writing to the caller's
        # arrays afterwards must not leave them stale
        w, mu = np.array([0.25, 0.75]), np.array([[1.0, -1.0], [0.5, 2.0]])
        g = GaussianMixture(weights=w, means=mu, variances=np.ones(2))
        x = np.random.default_rng(4).standard_normal((5, 2))
        want = posterior_mean_gmm(g, vp, 400, x)
        w[:] = w[::-1]
        mu *= 3.0
        assert np.array_equal(posterior_mean_gmm(g, vp, 400, x), want)
        with pytest.raises(ValueError, match="read-only"):
            g.sqnorms[0] = 0.0

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
#: vp 80 and flow 0.25 are times where the softmax flushes (FLUSH_TIMES)
SPLIT_TIMES = [("vp", 999), ("vp", 500), ("vp", 100), ("vp", 80), ("vp", 10),
               ("vp", 0), ("flow", 1.0), ("flow", 0.5), ("flow", 0.25),
               ("flow", 0.05), ("flow", 0.0)]


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


#: Thresholds of the concentration statistic the settle step is checked at.
THRESHOLDS = [1e-3, 0.5, 0.9, 1.0 - 1e-6]


def _above(ds, s, t, x, threshold):
    """The settled top-weight comparison the degradation statistic takes:
    ``(top, above)``, with top -1 where the flag does not hold."""
    return oracles._posterior(ds, s, t, x, "above", threshold)


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

    @pytest.mark.parametrize("row,want", [
        # the first entry near the row max, 1 - 2**-40, divides to another
        # quotient, so the row takes np.argmax of its divided row: the
        # entry just below the max, whose quotient ties with the max's
        ([1.0 - 2.0 ** -40, np.nextafter(1.0, 0.0), 1.0, 0.5, 0.5], 1),
        # the first entry near the row max ties with it and is the top
        ([np.nextafter(1.0, 0.0), 1.0, 0.5, 0.5, 0.0], 0),
    ], ids=["first-candidate-misses", "first-candidate-ties"])
    def test_top_read_without_dividing_is_argmax_of_the_quotients(self, row,
                                                                   want):
        e = np.array([row])
        z = e.sum(axis=1, keepdims=True)
        q = e / z
        first = np.argmax(e[0] >= e.max() * (1.0 - 2.0 ** -30))
        assert (q[0, first] == q.max()) == (first == want)
        assert np.argmax(q) == want != np.argmax(e)
        top, w = oracles._top_rows(e.copy(), z)
        assert top.tolist() == [want] and w.tolist() == [q[0, want]]
        # and the same next to another row in one tile
        both = np.array([row, row[::-1]])
        zb = both.sum(axis=1, keepdims=True)
        top, w = oracles._top_rows(both, zb)
        assert np.array_equal(top, np.argmax(both / zb, axis=1))
        assert np.array_equal(w, (both / zb).max(axis=1))

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

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    @pytest.mark.parametrize("atoms", [1, 2, 7, 1000, "tied"])
    def test_above_is_the_top_weight_over_the_threshold(
            self, monkeypatch, wide_dataset, vp, flow, split, atoms):
        # the settle step decides most rows from their two largest logits;
        # every row's flag, and its top atom where the flag holds, are
        # posterior_top's, at every time, c0 = 0 and c1 = 0 included
        if atoms == 1000:
            ds = wide_dataset
        elif atoms == "tied":  # atoms i and i + 250 are the same point
            ds = Dataset(atoms=np.tile(wide_dataset.atoms[:250], (4, 1)))
        else:
            ds = Dataset(atoms=np.random.default_rng(atoms).standard_normal(
                (atoms, 64)))
        seen = _spy_blocks(monkeypatch)
        _blas_threads(monkeypatch, 1 if split else 2)
        for family, t in SPLIT_TIMES:
            s = vp if family == "vp" else flow
            x = _states(ds, s, t, 130)
            top, w = posterior_top(ds, s, t, x)
            for threshold in THRESHOLDS:
                got, above = _above(ds, s, t, x, threshold)
                assert np.array_equal(above, w > threshold), (family, t)
                assert np.array_equal(got, np.where(above, top, -1))
                one = _above(ds, s, t, x[0], threshold)
                assert one == (got[0], above[0]) and np.ndim(one[0]) == 0
        assert len(seen) == (len(SPLIT_TIMES) * (1 + len(THRESHOLDS))
                             if split else 0)

    def test_a_near_tie_is_not_settled_above(self, flow):
        # shifted logits [-2**-59, 0]: both exponentials round to 1.0, so
        # the top atom is 0, while the logit argmax is 1; the bound alone
        # (w >= 0.5 > 0.4) would settle the row above at atom 1
        for logits in ([-2.0 ** -59, 0.0], [np.nextafter(0.25, 0.0), 0.25]):
            tile = np.array([logits])
            top, above, open_ = oracles._settle(tile, 0.4)
            assert open_.tolist() == [True] and not above[0]
            assert tile.tolist() == [logits]  # left as it was found
        ds = Dataset(atoms=np.eye(2))
        x = np.array([0.25 - 2.0 ** -60, 0.25])  # flow 0.5: logits 2x - 1/2
        assert mixing_coeffs(flow, 0.5) == (0.5, 0.5)
        assert posterior_top(ds, flow, 0.5, x) == (0, 0.5)
        assert _above(ds, flow, 0.5, x, 0.4) == (0, True)

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_overflowing_state_is_above_at_its_nearest_atom(
            self, monkeypatch, wide_dataset, vp, split):
        # its logits overflow, so it is never settled and takes the exact
        # path's nearest-atom fallback; its neighbours are settled
        monkeypatch.setattr(oracles, "_split", lambda b: split)
        x = _states(wide_dataset, vp, 100, 130)
        x[5] = 1e306 * np.sign(wide_dataset.atoms[0])
        c0, _ = mixing_coeffs(vp, 100)
        nearest = np.argmax((x[5] / c0) @ wide_dataset.atoms.T
                            - wide_dataset.half_sqnorms)
        top, w = posterior_top(wide_dataset, vp, 100, x)
        got, above = _above(wide_dataset, vp, 100, x, 0.9)
        assert (got[5], above[5]) == (nearest, True)
        assert np.array_equal(above, w > 0.9)
        assert np.array_equal(got, np.where(above, top, -1))

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_settling_never_passes_exp_an_input_below_the_flush(
            self, monkeypatch, wide_dataset, vp, flow, split):
        # 1-D calls too: the settle step takes each row's second-largest
        # exponential, and at vp 10 every such logit is below -707
        _blas_threads(monkeypatch, 1 if split else 2)
        seen, exp = [], np.exp

        def spy(x, *args, **kwargs):
            seen.append((np.ndim(x), np.min(x, initial=np.inf)))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        for family, t in FLUSH_TIMES + [("vp", 10), ("vp", 300)]:
            s = vp if family == "vp" else flow
            x = _states(wide_dataset, s, t, 300)
            for threshold in THRESHOLDS:
                _above(wide_dataset, s, t, x, threshold)
                _above(wide_dataset, s, t, x[0], threshold)
        assert {ndim for ndim, _ in seen} == {1, 2}
        assert min(low for _, low in seen) >= oracles._FLUSH

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_settled_rows_skip_the_softmax(self, monkeypatch, wide_dataset,
                                           vp, split):
        # at vp 100 every posterior has collapsed above 0.9, at vp 900
        # none has, and the two largest logits prove it for every row
        _blas_threads(monkeypatch, 1 if split else 2)
        rows, softmax = [], oracles._softmax_rows

        def spy(e):
            rows.append(e.shape[0])
            return softmax(e)

        monkeypatch.setattr(oracles, "_softmax_rows", spy)
        for t, want in ((100, True), (900, False)):
            x = _states(wide_dataset, vp, t, 300)
            top, above = _above(wide_dataset, vp, t, x, 0.9)
            assert np.all(above == want), t
            assert sum(rows) == 0, t
            posterior_top(wide_dataset, vp, t, x)  # the control
            assert sum(rows) == 300, t
            rows.clear()


def _shifted_logits(ds, s, t, x):
    """The dataset kernel's logits for states x, less each row's maximum:
    the same GEMM and max shift."""
    c0, c1 = mixing_coeffs(s, t)
    scale = c0 / (c1 * c1)
    logits = np.matmul(x * scale, ds.atoms.T)
    logits -= (c0 * scale) * ds.half_sqnorms
    return logits - logits.max(axis=1, keepdims=True)


#: Times at which a few percent of the wide dataset's shifted logits lie
#: in [-745.2, -707): np.exp is nonzero there and the kernel flushes.
FLUSH_TIMES = [("vp", 100), ("vp", 80), ("flow", 0.25)]


def _spy_exp(monkeypatch):
    """Record the smallest input of every 2-D np.exp call."""
    seen, exp = [], np.exp

    def spy(x, *args, **kwargs):
        if np.ndim(x) == 2:
            seen.append(np.min(x, initial=np.inf))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    return seen


def _tiles(ds, b, split):
    """How many row tiles the dataset kernel runs for a batch of b states:
    ``_ROWS``-row blocks, the last taking the remainder, when split."""
    step = max(1, oracles._TILE_BYTES // (8 * ds.n))
    rows = oracles._ROWS
    blocks = [rows] * (b // rows - 1) + [rows + b % rows] if split else [b]
    return sum(-(-r // step) for r in blocks)


def _check_overflowing_row(ds, s, t, x, i):
    """Put a state whose logits overflow at row ``i`` of the ordinary
    states ``x``: row ``i`` is one-hot at the nearest atom to ``x[i] / c0``
    and every other row is bitwise what it is with the ordinary state."""
    def kernels(x):
        return (posterior_weights(ds, s, t, x),
                posterior_mean_dataset(ds, s, t, x),
                *posterior_top(ds, s, t, x))

    before = kernels(x)
    assert not np.all((before[0] == 0.0) | (before[0] == 1.0))
    x = x.copy()
    x[i] = 1e306 * np.sign(ds.atoms[0])
    after = kernels(x)
    others = np.arange(x.shape[0]) != i
    for got, want in zip(after, before):
        assert np.array_equal(got[others], want[others])
    c0, _ = mixing_coeffs(s, t)
    nearest = np.argmax((x[i] / c0) @ ds.atoms.T - ds.half_sqnorms)
    w, mean, top, top_w = after
    assert np.array_equal(w[i], np.eye(ds.n)[nearest])
    assert np.array_equal(mean[i], ds.atoms[nearest])
    assert (top[i], top_w[i]) == (nearest, 1.0)


class TestFlush:
    @pytest.mark.parametrize("family,t", FLUSH_TIMES)
    def test_matches_plain_exp_within_the_tolerance(
            self, monkeypatch, wide_dataset, vp, flow, family, t):
        s = vp if family == "vp" else flow
        x = _states(wide_dataset, s, t, 200)
        logits = _shifted_logits(wide_dataset, s, t, x)
        band = (logits >= -745.2) & (logits < oracles._FLUSH)
        assert band.mean() >= 0.01
        # the plain np.exp reference, normalised as the kernel normalises
        e = np.exp(logits)
        z = e.sum(axis=1, keepdims=True)
        want_w, want_m = e / z, np.matmul(e, wide_dataset.atoms) / z
        _blas_threads(monkeypatch, 2)
        w = posterior_weights(wide_dataset, s, t, x)
        flushed = (w == 0.0) & (want_w < np.exp(oracles._FLUSH) / z)
        assert np.all((w == want_w) | flushed)
        assert np.any(flushed & (want_w > 0.0))
        assert np.array_equal(posterior_mean_dataset(wide_dataset, s, t, x),
                              want_m)
        top, top_w = posterior_top(wide_dataset, s, t, x)
        want_top = np.argmax(want_w, axis=1)
        assert np.array_equal(top, want_top)
        assert np.array_equal(top_w, want_w[np.arange(top.size), want_top])

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_exp_never_sees_an_input_below_the_flush(
            self, monkeypatch, wide_dataset, vp, flow, split):
        _blas_threads(monkeypatch, 1 if split else 2)
        seen = _spy_exp(monkeypatch)
        for family, t in FLUSH_TIMES:
            s = vp if family == "vp" else flow
            x = _states(wide_dataset, s, t, 300)
            posterior_weights(wide_dataset, s, t, x)
            posterior_mean_dataset(wide_dataset, s, t, x)
            posterior_top(wide_dataset, s, t, x)
        # one np.exp per row tile of each 64-row block (or of the batch)
        assert len(seen) == 3 * len(FLUSH_TIMES) * _tiles(wide_dataset, 300,
                                                          split)
        assert min(seen) >= oracles._FLUSH

    def test_each_row_is_the_same_alone_and_in_a_block(self):
        # a block that takes the flush gives each row the bits it gets
        # alone, where the plain np.exp runs
        rows = np.array([
            [0.0, -706.9, -707.0, -707.5, -720.0, -745.2, -800.0, -np.inf],
            [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0],
        ]) + 3.0
        e = rows.copy()
        z, top = oracles._softmax_rows(e)
        for i, row in enumerate(rows):
            one = row[None, :].copy()
            z1, top1 = oracles._softmax_rows(one)
            assert np.array_equal(one, e[i:i + 1]), i
            assert np.array_equal(z1, z[i:i + 1]), i
            assert np.array_equal(top1, top[i:i + 1]), i
        assert np.array_equal(e[0], [1.0, np.exp(-706.9), np.exp(-707.0)]
                              + [0.0] * 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_infinite_logit_leaves_a_non_finite_sum(self, bad):
        # alone or next to a row that is flushed, so the dataset oracle
        # still takes its nearest-atom branch
        row = np.array([0.0, -1.0, bad, -720.0, -800.0])
        flushed = np.array([0.0, -1.0, -2.0, -720.0, -800.0])
        for block in (row[None, :], np.stack([flushed, row])):
            with np.errstate(invalid="ignore"):  # inf - inf, as in the kernel
                z, _ = oracles._softmax_rows(block.copy())
            assert not np.isfinite(z[-1, 0])
            assert np.isfinite(z[:-1]).all()

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_overflowing_state_takes_the_nearest_atom(
            self, monkeypatch, wide_dataset, vp, split):
        # one state whose logits overflow is one-hot at its nearest atom,
        # not its whole block: the states next to it, whose logits are
        # flushed, keep their posteriors
        monkeypatch.setattr(oracles, "_split", lambda b: split)
        _check_overflowing_row(wide_dataset, vp, 100,
                               _states(wide_dataset, vp, 100, 130), 5)

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_overflow_in_the_last_tile_makes_its_block_one_hot(
            self, monkeypatch, wide_dataset, vp, split):
        # 3-row tiles: the earlier tiles of the block are finished (the
        # weights divided, the top atoms read) before the overflowing one;
        # only the overflowing row is one-hot, its block and tile keep
        # their posteriors
        monkeypatch.setattr(oracles, "_TILE_BYTES", 3 * 8 * wide_dataset.n)
        monkeypatch.setattr(oracles, "_split", lambda b: split)
        last = (64 if split else 130) - 1
        _check_overflowing_row(wide_dataset, vp, 100,
                               _states(wide_dataset, vp, 100, 130), last)

    def test_state_too_large_for_the_nearest_atom_logits(self, vp):
        # (x / c0) @ atoms.T overflows for a state of about 1e306 or more.
        # At x = 1e307 * sign, x/c0 . a - |a|^2/2 is largest where the
        # exact sum of sign * a is (|a|^2/2 is far below its last bit), at
        # atom 340, as in long double; an overflowed row gave atom 3
        atoms = np.random.default_rng(5).standard_normal((1000, 64))
        ds = Dataset(atoms=atoms)
        sign = -np.sign(atoms[0])
        assert np.argmax([math.fsum(r) for r in (sign * atoms).tolist()]) == 340
        x = np.stack([1e307 * sign, 1e306 * np.sign(atoms[3]),
                      np.zeros(64)])
        top, w = posterior_top(ds, vp, 100, x)
        # the rows whose nearest-atom logits are finite keep them as formed
        c0, _ = mixing_coeffs(vp, 100)
        logits = (x[1:] / c0) @ atoms.T - ds.half_sqnorms
        assert np.array_equal(top[:2], [340, np.argmax(logits[0])])
        assert np.all(w[:2] == 1.0)
        # the zero state keeps its posterior, atom 19 at 0.99995, as alone
        alone = posterior_top(ds, vp, 100, x[2])
        assert (top[2], w[2]) == alone and alone[1] < 1.0

    @pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
    def test_empty_batch(self, monkeypatch, wide_dataset, vp, split):
        # a gate on e.min() with no initial value raised on a (0, n) buffer
        monkeypatch.setattr(oracles, "_split", lambda b: split)
        x = np.zeros((0, wide_dataset.d))
        assert posterior_weights(wide_dataset, vp, 100, x).shape == (
            0, wide_dataset.n)
        assert posterior_mean_dataset(wide_dataset, vp, 100, x).shape == (
            0, wide_dataset.d)
        top, w = posterior_top(wide_dataset, vp, 100, x)
        assert top.shape == w.shape == (0,)
        top, above = _above(wide_dataset, vp, 100, x, 0.9)
        assert top.shape == above.shape == (0,)


class TestThreeRowTiles(TestPosteriorTop, TestFlush):
    """The top-atom and flush tests, the pinned degradation digest among
    them, with the softmax run on 3-row tiles: every dataset here has
    1000 atoms, so a 64-row block is 21 tiles and a 1-row remainder."""

    @pytest.fixture(autouse=True)
    def three_row_tiles(self, monkeypatch):
        monkeypatch.setattr(oracles, "_TILE_BYTES", 3 * 8 * 1000)


class TestPredictor:
    def test_label_restricts_atoms(self, small_dataset, vp):
        p = make_predictor(small_dataset, vp, label=2)
        assert p.source.n < small_dataset.n

    def test_rejects_other_sources(self, vp):
        with pytest.raises(ParameterError):
            make_predictor([[1.0]], vp)
        # built directly, it raised AttributeError on its first call
        with pytest.raises(ParameterError, match="Dataset or GaussianMixture"):
            Predictor(source=42, schedule=vp)

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


#: The five oracle functions that take states, each with its source.
_D = 3
_STATE_FUNCTIONS = {
    "posterior_mean_dataset": posterior_mean_dataset,
    "posterior_weights": posterior_weights,
    "posterior_top": posterior_top,
    "posterior_mean_gmm": posterior_mean_gmm,
    "gmm_marginal_logdensity": gmm_marginal_logdensity,
}
_DATASET = Dataset(atoms=np.random.default_rng(5).standard_normal((12, _D)))
_MIXTURE = GaussianMixture(weights=[0.25, 0.75],
                           means=[[1.0, 0.0, -1.0], [0.0, 2.0, 0.5]],
                           variances=[0.3, 1.0])


@st.composite
def _bad_states(draw):
    """A malformed state batch against d = 3, and the error it must raise
    (None for an empty (0, 3) batch, whose output is empty)."""
    kind = draw(st.sampled_from(["non-finite", "empty", "wrong-width",
                                 "other-ndim"]))
    b = draw(st.integers(1, 5))
    if kind == "non-finite":
        shape, error = draw(st.sampled_from([(_D,), (b, _D)])), NumericError
    elif kind == "empty":
        shape = draw(st.sampled_from([(0,), (0, _D), (0, 0), (b, 0)]))
        error = None if shape == (0, _D) else ValidationError
    elif kind == "wrong-width":
        w = draw(st.integers(1, 6).filter(lambda w: w != _D))
        shape, error = draw(st.sampled_from([(w,), (b, w)])), ValidationError
    else:
        shape = draw(st.sampled_from([(), (1, 1, _D), (b, 2, _D),
                                      (2, _D, 1)]))
        error = ValidationError
    x = draw(arrays(np.float64, shape, elements=st.floats(width=64)))
    if kind == "non-finite":
        x.flat[draw(st.integers(0, x.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return x, error


class TestOracleStates:
    """Every oracle function takes its states through one check: a
    malformed state raises a typed error, never NaN or NumPy's own."""

    @pytest.mark.parametrize("name", list(_STATE_FUNCTIONS))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=_bad_states(), t=st.sampled_from([999, 500, 1]))
    @example(state=(np.full(_D, np.nan), NumericError), t=500)
    @example(state=(np.zeros((2, 4)), ValidationError), t=500)
    def test_malformed_states_raise_typed_errors(self, vp, name, state, t):
        # called directly, each returned NaN for a NaN state and raised
        # NumPy's ValueError for a (2, 4) state against d = 3
        source = _MIXTURE if "gmm" in name else _DATASET
        x, error = state
        try:
            out = _STATE_FUNCTIONS[name](source, vp, t, x)
        except NimatrixError as exc:
            assert type(exc) is error
            return
        assert error is None
        assert all(np.isfinite(o).all()
                   for o in (out if isinstance(out, tuple) else (out,)))


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
