"""Analytic x0-predictors and densities.

Two oracle families stand in for a trained network:

- :class:`Dataset`: a finite atom set.  At time ``t`` the state
  ``x = c0 * x0 + c1 * eps`` induces an exact posterior over the atoms —
  a softmax of negative squared distances to ``mu = x / c0`` with
  bandwidth ``sigma = c1 / c0`` — whose mean is the ideal predictor.
- :class:`GaussianMixture`: isotropic components with conjugate Gaussian
  posteriors, giving a smooth predictor, an analytic marginal density,
  and therefore an analytic score for cross-checks.

The dataset posterior runs as one fused kernel.  Up to a per-state
constant the logits are ``(c0/c1^2) x . a - (c0^2/c1^2) |a|^2 / 2``: one
GEMM of the pre-scaled states against the atoms, minus the half squared
atom norms that each :class:`Dataset` caches.  The row maximum is
subtracted before the exponential, because at small ``sigma`` the logits
reach the thousands or more and would overflow or underflow otherwise; the
exponentials are taken in place, and the weights and the posterior mean
are both normalised by the same row sums.  The GMM oracle keeps its
log-domain responsibilities.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError, ValidationError
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


def _logsumexp(a, axis=-1, keepdims=False):
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def _sqdist(a, b):
    """Pairwise squared Euclidean distances, (m, d) x (n, d) -> (m, n)."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _posterior_kernel(ds: Dataset, s: Schedule, t, xb):
    """Unnormalised posterior weights over the atoms for (b, d) states.

    Returns ``(e, z, degenerate)``: the (b, n) weights ``e``, their (b, 1)
    row sums ``z``, and whether this is the c0 = 0 uniform limit.  The
    posterior weights are ``e / z``.
    """
    c0, c1 = mixing_coeffs(s, t)
    b = xb.shape[0]
    if c0 == 0.0:
        return np.ones((b, ds.n)), np.full((b, 1), float(ds.n)), True
    if c1 == 0.0:
        # one-hot at the nearest atom to x / c0 (lowest index on ties)
        idx = np.argmax((xb / c0) @ ds.atoms.T - ds.half_sqnorms, axis=1)
        e = np.zeros((b, ds.n))
        e[np.arange(b), idx] = 1.0
        return e, np.ones((b, 1)), False
    scale = c0 / (c1 * c1)
    e = (xb * scale) @ ds.atoms.T
    e -= (c0 * scale) * ds.half_sqnorms
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=1, keepdims=True), False


def posterior_weights(ds: Dataset, s: Schedule, t, x,
                      return_status: bool = False):
    """Posterior probabilities over the atoms given the state x at t."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    e, z, degenerate = _posterior_kernel(ds, s, t, x[None, :] if single else x)
    e /= z
    w = e[0] if single else e
    if return_status:
        return w, degenerate
    return w


def posterior_mean_dataset(ds: Dataset, s: Schedule, t, x):
    """Exact posterior mean E[x0 | x_t] over the atom set."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    e, z, _ = _posterior_kernel(ds, s, t, x[None, :] if single else x)
    out = (e @ ds.atoms) / z
    return out[0] if single else out


def posterior_mean_gmm(g: GaussianMixture, s: Schedule, t, x):
    """Posterior mean under an isotropic Gaussian mixture prior.

    Each component posterior mean is the conjugate-Gaussian update
    ``m_k + c0 v_k / (c0^2 v_k + c1^2) (x - c0 m_k)``; components
    combine via log-domain responsibilities under the state marginal
    ``N(c0 m_k, (c0^2 v_k + c1^2) I)``.  Well defined whenever the
    state has any variance; at ``c0 = 0`` it reduces to the prior mean.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    c0, c1 = mixing_coeffs(s, t)
    v = g.variances
    tot = c0 * c0 * v + c1 * c1  # per-component marginal variance
    if np.any(tot == 0.0):
        if c0 == 0.0:
            raise ParameterError("posterior undefined: state has no "
                                 "signal and no noise")
        # c1 = 0 and v = 0: the state pins x0 = x / c0 exactly
        out = xb / c0
        return out[0] if single else out
    d = g.d
    d2 = _sqdist(xb, c0 * g.means)  # (b, k)
    log_r = (np.log(g.weights)[None, :] - 0.5 * d * np.log(tot)[None, :]
             - d2 / (2.0 * tot)[None, :])
    log_r = log_r - _logsumexp(log_r, axis=1, keepdims=True)
    r = np.exp(log_r)  # (b, k)
    # per-component posterior means, (b, k, d)
    gain = (c0 * v / tot)[None, :, None]
    comp = (g.means[None, :, :]
            + gain * (xb[:, None, :] - c0 * g.means[None, :, :]))
    out = np.sum(r[:, :, None] * comp, axis=1)
    return out[0] if single else out


def gmm_marginal_logdensity(g: GaussianMixture, s: Schedule, t, x) -> float:
    """log p(x_t): each component marginal is N(c0 m_k, (c0^2 v_k + c1^2) I)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    c0, c1 = mixing_coeffs(s, t)
    var = c0 * c0 * g.variances + c1 * c1
    d = g.d
    d2 = _sqdist(xb, c0 * g.means)
    log_p = (np.log(g.weights)[None, :]
             - 0.5 * d * (np.log(2.0 * np.pi) + np.log(var))[None, :]
             - d2 / (2.0 * var)[None, :])
    out = _logsumexp(log_p, axis=1)
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
        if isinstance(self.source, Dataset) and self.label is not None:
            object.__setattr__(self, "source", self.source.subset(self.label))

    @property
    def d(self) -> int:
        return self.source.d

    def __call__(self, t, x):
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


def load_dataset_csv(path) -> Dataset:
    try:
        atoms = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"malformed dataset CSV: {exc}") from exc
    return Dataset(atoms=atoms)


def load_mixture(path) -> GaussianMixture:
    """Mixture spec: JSON with weights, means, variances."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid mixture file: {exc.msg}",
                              row=exc.lineno, column=exc.colno) from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid mixture file: {exc}") from exc
    try:
        return GaussianMixture(weights=np.asarray(cfg["weights"]),
                               means=np.asarray(cfg["means"]),
                               variances=np.asarray(cfg["variances"]))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed mixture spec: {exc}") from exc
