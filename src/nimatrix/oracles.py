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

The dataset kernel can run on two threads.  A batch is cut into blocks
of 64 rows, the remainder joining the last block, and the caller and the
package's worker thread take the blocks in turn (``_pool.run_blocks``).
Each block runs its own GEMM and softmax, then writes its rows of a
preallocated result: the normalised weights, the second GEMM's posterior
mean, or (``posterior_top``) each row's most probable atom and its
weight, which it reads from a block-local weight buffer while that is
still in cache.  The split is taken only when all three hold, read on
every call: the BLAS NumPy loaded reports one thread (a multi-threaded
BLAS already has the other cores, and a BLAS whose count cannot be read
counts as many), the process may run on more than one CPU, and the batch
has at least two blocks.  Otherwise the batch is one call.  No block has
one row, because NumPy runs a one-row product as a GEMV, which can round
differently from the same row of a GEMM.  Where
the BLAS rounds each row of a GEMM alike in a block and in the whole
batch, the split is bitwise the one call; OpenBLAS does at the
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
                     ValidationError, check_int)
from .schedule import Schedule, mixing_coeffs

DATASET_MAGIC = b"NIDS1"


@dataclass(frozen=True)
class Dataset:
    atoms: np.ndarray = field(repr=False)  # (n, d)
    labels: np.ndarray | None = field(default=None, repr=False)
    # |a|^2 / 2 per atom, cached for the posterior logits
    half_sqnorms: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValidationError("atoms must be a non-empty (n, d) matrix")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("non-finite atom entry")
        object.__setattr__(self, "atoms", atoms)
        half = 0.5 * np.einsum("ij,ij->i", atoms, atoms)
        half.setflags(write=False)
        object.__setattr__(self, "half_sqnorms", half)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (atoms.shape[0],):
                raise ValidationError("labels length must match atom count")
            object.__setattr__(self, "labels", labels)

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

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if mu.ndim != 2:
            raise ValidationError("means must be a (k, d) matrix")
        k = mu.shape[0]
        if w.shape != (k,) or v.shape != (k,):
            raise ValidationError("weights/variances must have one entry "
                                  "per component")
        if not all(np.all(np.isfinite(a)) for a in (w, mu, v)):
            raise ValidationError("non-finite mixture parameter")
        if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError("weights must be positive and sum to 1")
        if np.any(v <= 0.0):
            raise ValidationError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    @property
    def d(self) -> int:
        return self.means.shape[1]


def _softmax_rows(e):
    """Max-shifted exponentials of a (b, k) logit buffer, in place.

    Returns the (b, 1) row sums ``z`` and row maxima ``top``: the softmax
    is ``e / z`` and the log-sum-exp of the logits is ``top + log z``.
    """
    top = e.max(axis=1, keepdims=True)
    e -= top
    np.exp(e, out=e)
    return e.sum(axis=1, keepdims=True), top


def _posterior_block(ds: Dataset, c0, c1, x, e):
    """Unnormalised posterior weights over the atoms for (r, d) states.

    Writes the weights into the (r, n) buffer ``e`` and returns their
    (r, 1) row sums ``z``; the posterior weights are ``e / z``.
    """
    if c0 == 0.0:
        e.fill(1.0)
        return np.full((e.shape[0], 1), float(ds.n))
    if c1 == 0.0:
        # one-hot at the nearest atom to x / c0 (lowest index on ties)
        np.matmul(x / c0, ds.atoms.T, out=e)
        e -= ds.half_sqnorms
        idx = np.argmax(e, axis=1)
        e.fill(0.0)
        e[np.arange(e.shape[0]), idx] = 1.0
        return np.ones((e.shape[0], 1))
    scale = c0 / (c1 * c1)
    np.matmul(x * scale, ds.atoms.T, out=e)
    e -= (c0 * scale) * ds.half_sqnorms
    z, _ = _softmax_rows(e)
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

    Each row block runs :func:`_posterior_block` and normalises by the
    row sums.  For the weights it writes into its rows of one (b, n)
    buffer, which it normalises in place; for the mean it runs the second
    GEMM of those rows into its rows of the (b, d) result.  For the top
    atom it writes into a block-local (rows, n) buffer, normalises it in
    place and writes each row's ``np.argmax`` and the weight there into
    its rows of two length-b results; split, no (b, n) buffer exists.
    Blocks are ``_ROWS`` rows, the last one taking the remainder; when
    :func:`_split` allows, the caller and the package's worker thread take
    them in turn, otherwise the whole batch is one block.  The row
    reductions are the same either way; the GEMM rows are where the BLAS
    rounds a row alike in a block and in the batch (module docstring).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
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
        z = _posterior_block(ds, c0, c1, xb[rows], w)
        if kind == "mean":
            y = out[0][rows]
            np.matmul(w, ds.atoms, out=y)
            y /= z
            return
        w /= z
        if kind == "top":
            top = np.argmax(w, axis=1)
            out[0][rows] = top
            out[1][rows] = w[np.arange(top.size), top]

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
    lowest index on ties) and the weight there, each row block reducing
    its own weights while they are in cache (:func:`_posterior`).
    """
    return _posterior(ds, s, t, x, "top")


def _mixture_kernel(g: GaussianMixture, c0, tot, xb):
    """Unnormalised component responsibilities for (b, d) states.

    The logits are ``log w_k - (d/2) log tot_k - |x - c0 m_k|^2 / (2 tot_k)``,
    expanded into one GEMM of the states against ``c0 m_k / tot_k``, a
    per-component bias and the outer product ``|x|^2 (x) 1 / (2 tot_k)``.
    Returns ``(e, z, top)`` as :func:`_softmax_rows` leaves them.
    """
    m = g.means
    half_inv = 0.5 / tot
    e = xb @ (m * (c0 / tot)[:, None]).T
    e += (np.log(g.weights) - 0.5 * g.d * np.log(tot)
          - (c0 * c0) * half_inv * np.einsum("kd,kd->k", m, m))
    e -= np.multiply.outer(np.einsum("bd,bd->b", xb, xb), half_inv)
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
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    c0, c1 = mixing_coeffs(s, t)
    v = g.variances
    tot = c0 * c0 * v + c1 * c1
    e, z, _ = _mixture_kernel(g, c0, tot, xb)
    out = (e @ (g.means * (c1 * c1 / tot)[:, None])
           + (e @ (c0 * v / tot))[:, None] * xb) / z
    return out[0] if single else out


def gmm_marginal_logdensity(g: GaussianMixture, s: Schedule, t, x) -> float:
    """log p(x_t): each component marginal is N(c0 m_k, (c0^2 v_k + c1^2) I)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    c0, c1 = mixing_coeffs(s, t)
    _, z, top = _mixture_kernel(g, c0, c0 * c0 * g.variances + c1 * c1,
                                x[None, :] if single else x)
    out = (top + np.log(z))[:, 0] - 0.5 * g.d * np.log(2.0 * np.pi)
    return float(out[0]) if single else out


def score_from_x0hat(s: Schedule, t, x, x0_hat):
    """Score of the marginal at x_t from the posterior-mean prediction:
    ``score = c0/c1^2 * x0_hat - 1/c1^2 * x``."""
    c0, c1 = mixing_coeffs(s, t)
    if c1 <= 0.0 or c0 <= 0.0:
        raise ParameterError(f"score undefined at (c0, c1) = ({c0}, {c1})")
    v = c1 * c1
    return (c0 / v) * np.asarray(x0_hat) - np.asarray(x) / v


@dataclass(frozen=True)
class Predictor:
    """Callable f(t, x) returning the oracle posterior mean."""

    source: object
    schedule: Schedule
    label: object = None

    def __post_init__(self):
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
        batch.  A state of another shape is ``ValidationError``, and a
        non-finite one (an executor that overflowed) ``NumericError``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValidationError(f"need ({self.d},) or (b, {self.d}) "
                                  f"states, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite state at t = {t!r}")
        if isinstance(self.source, Dataset):
            return posterior_mean_dataset(self.source, self.schedule, t, x)
        return posterior_mean_gmm(self.source, self.schedule, t, x)


def make_predictor(source, s: Schedule, label=None) -> Predictor:
    if not isinstance(source, (Dataset, GaussianMixture)):
        raise ParameterError("source must be a Dataset or GaussianMixture")
    return Predictor(source=source, schedule=s, label=label)


# ---------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    """Binary layout: magic, u32 n, u32 d (little endian), n*d f64 row-major
    atom block, then optionally n u32 labels."""
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<II", ds.n, ds.d))
        fh.write(ds.atoms.astype("<f8").tobytes())
        if ds.labels is not None:
            fh.write(ds.labels.astype("<u4").tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != DATASET_MAGIC:
        raise FormatError("not a dataset file (bad magic)")
    if len(blob) < 13:
        raise FormatError("truncated dataset header")
    n, d = struct.unpack("<II", blob[5:13])
    need = 13 + 8 * n * d
    if len(blob) < need:
        raise FormatError(f"truncated atom block (need {need} bytes)")
    atoms = np.frombuffer(blob[13:need], dtype="<f8").reshape(n, d).copy()
    labels = None
    rest = blob[need:]
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
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid mixture file: {exc.msg}",
                              row=exc.lineno, column=exc.colno) from exc
        except ValueError as exc:  # bad UTF-8, or an integer too long
            raise FormatError(f"invalid mixture file: {exc}") from exc
    try:
        return GaussianMixture(weights=np.asarray(cfg["weights"]),
                               means=np.asarray(cfg["means"]),
                               variances=np.asarray(cfg["variances"]))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed mixture spec: {exc}") from exc
