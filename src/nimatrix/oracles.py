"""Analytic x0-predictors and densities.

Two oracle families stand in for a trained network:

- :class:`Dataset`: a finite atom set.  At time ``t`` the state
  ``x = c0 * x0 + c1 * eps`` induces an exact posterior over the atoms —
  a softmax of negative squared distances to ``mu = x / c0`` with
  bandwidth ``sigma = c1 / c0`` — whose mean is the ideal predictor.
- :class:`GaussianMixture`: isotropic components with conjugate Gaussian
  posteriors, giving a smooth predictor, an analytic marginal density,
  and therefore an analytic score for cross-checks.

Both families weight their atoms or components with one stabilised
softmax over a ``(b, k)`` logit buffer formed by a GEMM.  For the dataset,
up to a per-state constant the logits are
``(c0/c1^2) x . a - (c0^2/c1^2) |a|^2 / 2``: the pre-scaled states against
the atoms, minus the half squared atom norms that each :class:`Dataset`
caches.  For the mixture they are the component log marginals, the states
against ``c0 m_k / tot_k`` plus per-component and per-state terms.  The
row maximum is subtracted before the exponential, because at small
``sigma`` the logits reach the thousands or more and would overflow or
underflow otherwise; the exponentials are taken in place, the weights and
the posterior mean are both normalised by the same row sums, and the
mixture log-density is the row maximum plus the log of the row sum.

A shifted logit below ``_FLUSH = -707`` is taken as exactly 0, not passed
to ``np.exp``.  NumPy's AVX-512 ``exp`` stays on its fast path only for
inputs of at least ``ln 2**-1021`` (about -707.7); one lane below that
sends its whole vector down a path ten to two hundred times slower (its
AVX2 ``exp`` is slow there too).  Once the posterior has collapsed onto a
few atoms, a few percent of the shifted logits of a batch lie there.  ``np.exp`` itself gives 0 below
about -745.13.  The tolerance: an unnormalised weight that the flush
changes was below ``e**-707`` (about 9.0e-308) and is now 0, so its
posterior weight changes by less than ``e**-707 / z``.  Every other
weight, posterior mean, top atom and mixture log-density is bitwise the
plain ``np.exp`` result unless a row sum ``z`` changes; ``z`` is at least
1 (the row maximum gives ``e**0``), so terms that small move it only
where they tip a rounding.

The dataset kernel can run on two threads.  A batch is cut into blocks
of 64 rows, the remainder joining the last block, and the caller and the
package's worker thread take the blocks in turn (``_pool.run_blocks``).
Each block runs its own GEMM, then the half-norm shift and the softmax
on row tiles of about 1 MiB (``_TILE_BYTES``: 13 rows at 10000 atoms),
each finished while it is still in a core's L2 cache: its normalised
weights are divided in place, or (``posterior_top``) each row's most
probable atom and its weight are read from the tile without dividing
it (``_top_rows``); the posterior mean's second GEMM runs on the whole
block.  Each block writes its rows of a preallocated result.  A GEMM of
a tile's few rows runs well below the rate of one of 64 rows (16 rows:
41 against 71 GFLOP/s on one AVX-512 core), so the block, not the tile,
is the GEMM's unit; each pass after it works row by row and gives a row
the same bits on a tile as on the block.  The split is taken only when
all three hold, read on every call: the BLAS NumPy loaded reports one
thread (a multi-threaded BLAS already has the other cores, and a BLAS
whose count cannot be read counts as many), the process may run on more
than one CPU, and the batch has at least two blocks.  Otherwise the
batch is one call.  No block has one row, because NumPy runs a one-row
product as a GEMV, which can round differently from the same row of a
GEMM.  Where the BLAS rounds each row of a GEMM alike in a block and in
the whole batch, the split is bitwise the one call; OpenBLAS does at the
benchmark's 10000 x 64 dataset, but its edge kernels need not when the
atom count or the dimension is not a multiple of their tile (500 atoms
in 16-D on AVX-512 differ in the last bit), just as the one call already
differs in the last bit between one and two BLAS threads.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._pool import run_blocks
from .errors import (FormatError, NumericError, ParameterError,
                     ValidationError, check_array, check_int,
                     check_json_array)
from .schedule import Schedule, mixing_coeffs

DATASET_MAGIC = b"NIDS1"


def _owned(a, given):
    """``a``, copied if it is the caller's array ``given`` or a view of
    memory the caller holds, so writing there later cannot make a cached
    constant stale."""
    return a.copy() if a is given or not a.flags.owndata else a


@dataclass(frozen=True)
class Dataset:
    atoms: np.ndarray = field(repr=False)  # (n, d)
    labels: np.ndarray | None = field(default=None, repr=False)
    # |a|^2 / 2 per atom, cached for the posterior logits
    half_sqnorms: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        atoms = _owned(check_array("atoms", self.atoms, 2), self.atoms)
        if atoms.size == 0:
            raise ValidationError("atoms must be a non-empty (n, d) matrix")
        object.__setattr__(self, "atoms", atoms)
        half = 0.5 * np.einsum("ij,ij->i", atoms, atoms)
        half.setflags(write=False)
        object.__setattr__(self, "half_sqnorms", half)
        if self.labels is not None:
            # an integer below 2**53 in size is read exactly as a float64
            labels = check_array("labels", self.labels, 1)
            if (labels.shape != (atoms.shape[0],) or np.any(labels % 1)
                    or np.any(np.abs(labels) >= 2.0 ** 53)):
                raise ValidationError("need one integer label, less than "
                                      "2**53 in size, per atom")
            object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    def subset(self, label) -> "Dataset":
        label = check_int("label", label, None)
        if self.labels is None:
            raise ParameterError("dataset has no labels")
        mask = self.labels == label
        if not mask.any():
            raise ParameterError(f"no atoms with label {label}")
        return Dataset(atoms=self.atoms[mask], labels=self.labels[mask])


@dataclass(frozen=True)
class GaussianMixture:
    weights: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)       # (k, d)
    variances: np.ndarray = field(repr=False)   # (k,), isotropic
    # log w_k and |m_k|^2 per component, cached for the mixture logits
    log_weights: np.ndarray = field(init=False, compare=False, repr=False)
    sqnorms: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = _owned(check_array("mixture weights", self.weights, 1),
                   self.weights)
        mu = _owned(check_array("mixture means", self.means, 2), self.means)
        v = check_array("mixture variances", self.variances, 1)
        if mu.size == 0:
            raise ValidationError("mixture means must be a non-empty (k, d) "
                                  "matrix")
        k = mu.shape[0]
        if w.shape != (k,) or v.shape != (k,):
            raise ValidationError("weights/variances must have one entry "
                                  "per component")
        if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError("weights must be positive and sum to 1")
        if np.any(v <= 0.0):
            raise ValidationError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)
        for name, value in (("log_weights", np.log(w)),
                            ("sqnorms", np.einsum("kd,kd->k", mu, mu))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.means.shape[1]


def _batch(d: int, t, x):
    """States ``x`` at ``t`` as a ``(b, d)`` batch, and whether ``x`` was
    one ``(d,)`` state.

    Every oracle function takes its states through ``check_array`` here.
    A state of another shape, or one that is not numeric, is
    ``ValidationError``, even when it is not finite; a non-finite state
    of the right shape (an executor that overflowed) is ``NumericError``.
    """
    try:
        x = check_array("states", x, (1, 2), NumericError)
        shape = x.shape
    except NumericError:
        shape = np.shape(x)  # numeric, 1-D or 2-D
        if shape[-1] == d:
            raise NumericError(f"non-finite state at t = {t!r}") from None
    if shape[-1] != d:
        raise ValidationError(f"need ({d},) or (b, {d}) states, got shape "
                              f"{shape}")
    return (x[None, :], True) if x.ndim == 1 else (x, False)


# Shifted logits below this give an exponential of exactly 0 (module
# docstring): NumPy's fast exp path holds down to about -707.7.
_FLUSH = -707.0


def _softmax_rows(e):
    """Max-shifted exponentials of a (b, k) logit buffer, in place.

    Returns the (b, 1) row sums ``z`` and row maxima ``top``: the softmax
    is ``e / z`` and the log-sum-exp of the logits is ``top + log z``.
    A shifted logit below ``_FLUSH = -707`` gives exactly 0 and never
    reaches ``np.exp``, whose AVX-512 loop leaves its fast path for a whole
    vector when one lane is below about -707.7; an unnormalised weight
    under ``e**-707`` becomes 0 (the tolerance is in the module
    docstring).  Every other entry is the plain ``np.exp``.  The gate's
    minimum skips NaN, so a row whose logits overflowed does not keep the
    flush from the other rows of the buffer; that row keeps a NaN ``z``.
    """
    top = e.max(axis=1, keepdims=True)
    e -= top
    if np.fmin.reduce(e, axis=None, initial=0.0) < _FLUSH:
        keep = e >= _FLUSH
        np.maximum(e, _FLUSH, out=e)
        np.exp(e, out=e)
        np.multiply(e, keep, out=e)
    else:
        np.exp(e, out=e)
    return e.sum(axis=1, keepdims=True), top


def _top_rows(e, z):
    """Each row's ``np.argmax`` of ``e / z`` and the quotient there, for
    (r, n) exponentials ``e`` with finite (r, 1) row sums ``z``, without
    dividing ``e``.

    Division by a positive ``z`` is monotone, so the largest quotient is
    ``emax / z`` for the row maximum ``emax``, and every entry whose
    quotient equals it lies within a few ulps of ``emax`` (the quotient
    is at least ``1 / n``, a normal number).  The first entry of at least
    ``emax * (1 - 2**-30)`` is therefore at or before the argmax, and is
    the argmax if its quotient ties; a row where it does not tie takes
    ``np.argmax`` of its divided row.
    """
    emax = e.max(axis=1)
    top = np.argmax(e >= (emax * (1.0 - 2.0 ** -30))[:, None], axis=1)
    z = z[:, 0]
    w = emax / z
    miss = e[np.arange(top.size), top] / z != w
    if miss.any():
        top[miss] = np.argmax(e[miss] / z[miss, None], axis=1)
    return top, w


# Bytes of a softmax row tile: half of a 2 MiB L2 cache, so a tile's
# passes after the GEMM run on data still in cache (module docstring).
_TILE_BYTES = 2 ** 20


def _nearest(ds: Dataset, c0, x, e):
    """One-hot rows at the nearest atom to each of the (r, d) states
    ``x / c0``, written into the (r, n) buffer ``e``.

    The nearest atom is the argmax of ``x/c0 . a - |a|^2 / 2``, the lowest
    index on ties.  A row whose logits overflow (a state of about 1e306
    or more) is formed again from its state scaled by an exact power of
    two, which leaves the argmax as it is and brings the row's largest
    entry into [0.5, 1).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(x / c0, ds.atoms.T, out=e)
        e -= ds.half_sqnorms
    bad = ~np.isfinite(e).all(axis=1)
    if bad.any():
        big = x[bad]
        _, k = np.frexp(np.abs(big).max(axis=1, keepdims=True))
        e[bad] = ((np.ldexp(big, -k) / c0) @ ds.atoms.T
                  - np.ldexp(ds.half_sqnorms, -k))
    idx = np.argmax(e, axis=1)
    e.fill(0.0)
    e[np.arange(e.shape[0]), idx] = 1.0


def _posterior_block(ds: Dataset, c0, c1, x, e, finish):
    """Unnormalised posterior weights over the atoms for (r, d) states.

    Writes the weights into the (r, n) buffer ``e`` and returns their
    (r, 1) row sums ``z``; the posterior weights are ``e / z``.  After
    one GEMM of the whole block, the half-norm shift and the softmax run
    on tiles of rows of about ``_TILE_BYTES``, and each tile is handed to
    ``finish(rows, e[rows], z[rows])`` while it is in cache.  Where the
    logits cannot be formed in float64, a row is one-hot at the nearest
    atom to ``x / c0`` (:func:`_nearest`), its ``c1 -> 0`` limit, with a
    row sum of 1: the whole block when ``c1^2`` is 0, which every row
    shares, and otherwise each row whose logits overflowed so that its
    row sum is not finite.  Every other row keeps its softmax, which no
    other row's overflow changes.
    """
    r = e.shape[0]
    if c1 * c1 == 0.0:
        _nearest(ds, c0, x, e)
        z = np.ones((r, 1))
        finish(slice(0, r), e, z)
        return z
    scale = c0 / (c1 * c1)
    step = max(1, _TILE_BYTES // (8 * ds.n))
    z = np.empty((r, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(x * scale, ds.atoms.T, out=e)
        shift = (c0 * scale) * ds.half_sqnorms
        for lo in range(0, r, step):
            rows = slice(lo, min(lo + step, r))
            tile = e[rows]
            tile -= shift
            z[rows], _ = _softmax_rows(tile)
            zt = z[rows]
            if not np.isfinite(zt).all():
                bad = ~np.isfinite(zt[:, 0])
                one_hot = np.empty((np.count_nonzero(bad), ds.n))
                _nearest(ds, c0, x[rows][bad], one_hot)
                tile[bad] = one_hot
                zt[bad] = 1.0
            finish(rows, tile, zt)
    return z


# Row-block size of the two-thread split (see the module docstring); the
# remainder joins the last block, so no block has one row.
_ROWS = 64

# Names of the OpenBLAS thread-count getter: NumPy 2 wheels
# (scipy-openblas), NumPy 1.x wheels (ILP64), a system OpenBLAS.
_BLAS_QUERIES = ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def _blas_query():
    """The loaded OpenBLAS's thread-count getter, or None if there is none.

    The symbol is looked up through a NumPy extension module, so it is
    the BLAS NumPy itself loaded.  MKL, Accelerate, or a platform whose
    loader does not search a module's dependencies gives None.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _BLAS_QUERIES:
        query = getattr(lib, name, None)
        if query is not None:
            query.argtypes, query.restype = (), ctypes.c_int
            return query
    return None


def _split(b: int) -> bool:
    """Whether a batch of ``b`` states runs on the caller and the worker:
    two blocks, one BLAS thread, more than one CPU, read on every call."""
    if b < 2 * _ROWS:
        return False
    query = _blas_query()
    if query is None or query() != 1:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus > 1


def _posterior(ds: Dataset, s: Schedule, t, x, kind: str):
    """Posterior ``kind`` for states x: "weights", "mean" or "top".

    Each row block runs :func:`_posterior_block`, which hands it its rows
    tile by tile.  For the weights it writes into its rows of one (b, n)
    buffer and divides each tile by its row sums in place; for the mean
    it runs the second GEMM of the block's rows into its rows of the
    (b, d) result and divides that.  For the top atom it writes into a
    block-local (rows, n) buffer and reads each tile's top atoms and
    their weights with :func:`_top_rows` into its rows of two length-b
    results; split, no (b, n) buffer exists.  Blocks are ``_ROWS`` rows,
    the last one taking the remainder; when :func:`_split` allows, the
    caller and the package's worker thread take them in turn, otherwise
    the whole batch is one block.  The row reductions are the same
    either way; the GEMM rows are where the BLAS rounds a row alike in a
    block and in the batch (module docstring).
    """
    xb, single = _batch(ds.d, t, x)
    c0, c1 = mixing_coeffs(s, t)
    b = xb.shape[0]
    if kind == "top":
        e = None
        out = (np.empty(b, dtype=np.intp), np.empty(b))
    else:
        e = np.empty((b, ds.n))
        out = (np.empty((b, ds.d)) if kind == "mean" else e,)

    def block(rows):
        w = np.empty((rows.stop - rows.start, ds.n)) if e is None else e[rows]

        def finish(tile, wt, z):
            if kind == "weights":
                wt /= z
            elif kind == "top":
                at = slice(rows.start + tile.start, rows.start + tile.stop)
                out[0][at], out[1][at] = _top_rows(wt, z)

        z = _posterior_block(ds, c0, c1, xb[rows], w, finish)
        if kind == "mean":
            y = out[0][rows]
            np.matmul(w, ds.atoms, out=y)
            y /= z

    if _split(b):
        edges = [*range(0, b - _ROWS + 1, _ROWS), b]
        run_blocks(block, [slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
    else:
        block(slice(0, b))
    if single:
        out = tuple(o[0] for o in out)
    return out if kind == "top" else out[0]


def posterior_weights(ds: Dataset, s: Schedule, t, x):
    """Posterior probabilities over the atoms given the state x at t."""
    return _posterior(ds, s, t, x, "weights")


def posterior_mean_dataset(ds: Dataset, s: Schedule, t, x):
    """Exact posterior mean E[x0 | x_t] over the atom set."""
    return _posterior(ds, s, t, x, "mean")


def posterior_top(ds: Dataset, s: Schedule, t, x):
    """The most probable atom given the state x at t, and its weight.

    Returns ``(index, weight)``: for (b, d) states, a length-b index
    array and a length-b weight array; for one (d,) state, two scalars.
    They are bitwise ``np.argmax`` of :func:`posterior_weights` (the
    lowest index on ties) and the weight there, read from each row tile
    of unnormalised weights while it is in cache, without dividing it
    (:func:`_top_rows`).
    """
    return _posterior(ds, s, t, x, "top")


def _mixture_kernel(g: GaussianMixture, c0, tot, xb):
    """Unnormalised component responsibilities for (b, d) states.

    The logits are ``log w_k - (d/2) log tot_k - |x - c0 m_k|^2 / (2 tot_k)``,
    expanded into one GEMM of the states against ``c0 m_k / tot_k``, a
    per-component bias from the ``log w_k`` and ``|m_k|^2`` that each
    :class:`GaussianMixture` caches, and the outer product
    ``|x|^2 (x) 1 / (2 tot_k)``.
    Returns ``(e, z, top)`` as :func:`_softmax_rows` leaves them.  A
    state whose ``|x|^2`` overflows (about 1e154 or more) is
    ``NumericError``.
    """
    half_inv = 0.5 / tot
    sq = np.einsum("bd,bd->b", xb, xb)
    if not np.isfinite(sq).all():
        raise NumericError("a state too large for the mixture kernel: "
                           "its squared norm overflows")
    e = xb @ (g.means * (c0 / tot)[:, None]).T
    e += (g.log_weights - 0.5 * g.d * np.log(tot)
          - (c0 * c0) * half_inv * g.sqnorms)
    e -= np.multiply.outer(sq, half_inv)
    z, top = _softmax_rows(e)
    return e, z, top


def posterior_mean_gmm(g: GaussianMixture, s: Schedule, t, x):
    """Posterior mean under an isotropic Gaussian mixture prior.

    Each component posterior mean is the conjugate-Gaussian update
    ``(c1^2 / tot_k) m_k + gain_k x`` with ``tot_k = c0^2 v_k + c1^2`` and
    ``gain_k = c0 v_k / tot_k``; components combine with their
    responsibilities under the state marginal ``N(c0 m_k, tot_k I)``.
    ``tot_k > 0`` because ``v_k > 0`` and every schedule keeps
    ``c0^2 + c1^2 > 0``; at ``c0 = 0`` this is the prior mean.
    """
    xb, single = _batch(g.d, t, x)
    c0, c1 = mixing_coeffs(s, t)
    v = g.variances
    tot = c0 * c0 * v + c1 * c1
    e, z, _ = _mixture_kernel(g, c0, tot, xb)
    out = (e @ (g.means * (c1 * c1 / tot)[:, None])
           + (e @ (c0 * v / tot))[:, None] * xb) / z
    return out[0] if single else out


def gmm_marginal_logdensity(g: GaussianMixture, s: Schedule, t, x) -> float:
    """log p(x_t): each component marginal is N(c0 m_k, (c0^2 v_k + c1^2) I)."""
    xb, single = _batch(g.d, t, x)
    c0, c1 = mixing_coeffs(s, t)
    _, z, top = _mixture_kernel(g, c0, c0 * c0 * g.variances + c1 * c1, xb)
    out = (top + np.log(z))[:, 0] - 0.5 * g.d * np.log(2.0 * np.pi)
    return float(out[0]) if single else out


def score_from_x0hat(s: Schedule, t, x, x0_hat):
    """Score of the marginal at x_t from the posterior-mean prediction:
    ``score = c0/c1^2 * x0_hat - 1/c1^2 * x``."""
    x = check_array("x", x, (1, 2))
    x0_hat = check_array("x0_hat", x0_hat, (1, 2))
    if x.shape != x0_hat.shape:
        raise ValidationError(f"x has shape {x.shape} but x0_hat has shape "
                              f"{x0_hat.shape}")
    c0, c1 = mixing_coeffs(s, t)
    if c1 <= 0.0 or c0 <= 0.0:
        raise ParameterError(f"score undefined at (c0, c1) = ({c0}, {c1})")
    v = c1 * c1
    return (c0 / v) * x0_hat - x / v


@dataclass(frozen=True)
class Predictor:
    """Callable f(t, x) returning the oracle posterior mean."""

    source: object
    schedule: Schedule
    label: object = None

    def __post_init__(self):
        if not isinstance(self.source, (Dataset, GaussianMixture)):
            raise ParameterError("source must be a Dataset or GaussianMixture")
        if self.label is None:
            return
        if not isinstance(self.source, Dataset):
            raise ParameterError("a label selects dataset atoms; a mixture "
                                 "takes none")
        object.__setattr__(self, "source", self.source.subset(self.label))

    @property
    def d(self) -> int:
        return self.source.d

    def __call__(self, t, x):
        """The posterior mean at ``t`` of one ``(d,)`` state or a ``(b, d)``
        batch, with the states checked as every oracle function checks
        them (``_batch``)."""
        if isinstance(self.source, Dataset):
            return posterior_mean_dataset(self.source, self.schedule, t, x)
        return posterior_mean_gmm(self.source, self.schedule, t, x)


def make_predictor(source, s: Schedule, label=None) -> Predictor:
    """The ``Predictor`` of ``source`` under ``s``; the CLI builds every
    predictor here, the one name the benchmark's tracer wraps."""
    return Predictor(source=source, schedule=s, label=label)


# ---------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    """Binary layout: magic, u32 n, u32 d (little endian), n*d f64 row-major
    atom block, then optionally n u32 labels.  A label outside
    [0, 2**32) cannot be stored and is ``ValidationError``."""
    if ds.labels is not None and (np.any(ds.labels < 0)
                                  or np.any(ds.labels >= 2 ** 32)):
        raise ValidationError("a dataset file stores labels in [0, 2**32)")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<II", ds.n, ds.d))
        fh.write(ds.atoms.astype("<f8").tobytes())
        if ds.labels is not None:
            fh.write(ds.labels.astype("<u4").tobytes())


def load_dataset(path) -> Dataset:
    """Read a ``save_dataset`` file.

    The header's atom count is checked against the file's size before
    the atom block is allocated, so a header claiming more atoms than
    the file holds is ``FormatError`` at once; the block is then read
    straight into a float64 array of its own.
    """
    with open(path, "rb") as fh:
        head = fh.read(13)
        if head[:5] != DATASET_MAGIC:
            raise FormatError("not a dataset file (bad magic)")
        if len(head) < 13:
            raise FormatError("truncated dataset header")
        n, d = struct.unpack("<II", head[5:])
        need = 13 + 8 * n * d
        truncated = FormatError(f"truncated atom block (need {need} bytes)")
        if os.fstat(fh.fileno()).st_size < need:
            raise truncated
        atoms = np.empty((n, d), dtype="<f8")
        # a flat byte view: memoryview.cast fails on a zero-size shape
        if fh.readinto(atoms.reshape(-1).view(np.uint8)) != atoms.nbytes:
            raise truncated
        rest = fh.read()
    labels = None
    if rest:
        if len(rest) != 4 * n:
            raise FormatError("trailing bytes are not a label block")
        labels = np.frombuffer(rest, dtype="<u4").astype(np.int64)
    return Dataset(atoms=atoms, labels=labels)


def _read_table(path, ndmin: int, delimiter=None) -> np.ndarray:
    """A numeric text table; a file that ``np.loadtxt`` cannot parse, or
    would only warn about for holding no data, is ``FormatError``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(path, delimiter=delimiter, ndmin=ndmin)
    except (ValueError, UserWarning) as exc:
        raise FormatError(f"{path}: not a numeric table: {exc}") from exc


def load_dataset_csv(path) -> Dataset:
    return Dataset(atoms=_read_table(path, 2, ","))


def load_mixture(path) -> GaussianMixture:
    """Mixture spec: JSON with weights, means, variances."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # bad JSON (at line L column C), bad
            # UTF-8, or an integer too long
            raise FormatError(f"invalid mixture file: {exc}") from exc
    try:
        fields = {key: check_json_array(f"mixture {key}", cfg[key])
                  for key in ("weights", "means", "variances")}
    except (KeyError, TypeError) as exc:  # a key missing, or not an object
        raise FormatError(f"malformed mixture spec: {exc}") from exc
    return GaussianMixture(**fields)
