"""Exact affine state algebra used to trace samplers.

A sampler state is either a concrete array or an :class:`AffineState` —
an exact linear combination ``sum_i c_i * y_i + sum_j b_j * eps_j`` of
symbolic model outputs ``y_i`` and noise draws ``eps_j``, held as two
float64 vectors: ``signal[i]`` weights evaluation ``i`` and ``noise[j]``
weights the ``j``-th draw of the run.  A shorter vector means trailing
zeros.  Every sampler update in this package is affine, so running a
sampler on affine states produces its coefficient matrix with no
approximation beyond float arithmetic: each combined weight is the
correctly rounded (``math.fsum``) sum of its products.

The same sampler code also runs concretely: samplers call the two
methods of :class:`RunContext`, and the context decides whether
``apply_model`` invokes a predictor or records a matrix row, and whether
``fresh_noise`` draws a Gaussian vector or mints a basis term.

A predictor is any callable ``f(t, x)`` with a ``d`` that returns a
real, finite array of ``x``'s shape.  Every loop that calls one, the
concrete ``apply_model`` here and the executor's and ``over_enhance``'s
loops in ``engine``, reads its output through :func:`predict`: a complex
or non-numeric output or one of another shape raises
``ValidationError``, and a NaN or infinite entry ``NumericError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NumericError, ProtocolError, ValidationError,
                     check_array, check_int)

TRACE = "trace"
CONCRETE = "concrete"


@dataclass(frozen=True, eq=False)
class AffineState:
    """Exact linear combination of model outputs and noise draws.

    ``signal[i]`` is the weight of evaluation ``i``; ``noise[j]`` is the
    weight of the ``j``-th noise draw (``RunContext.noise_ids[j]``).
    Entries past a vector's end are zero.
    """

    signal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    noise: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        for name in ("signal", "noise"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.ndim != 1:
                raise ProtocolError(f"affine {name} weights must be a vector")
            object.__setattr__(self, name, v)


def _unit(length: int) -> np.ndarray:
    v = np.zeros(length)
    v[-1] = 1.0
    return v


def _combine_affine(terms):
    """The state ``sum c * st`` with correctly rounded weights.

    The products ``c * st`` fill one row each of a zero matrix, signal
    columns first, and the rows are summed column-wise.  A column with
    at most two nonzero products gets its correctly rounded sum in any
    order, and adding ``+0.0`` turns an all-zero column's ``-0.0`` into
    the ``+0.0`` that ``math.fsum`` returns.  Columns with three or more
    nonzero products are summed again with ``math.fsum``.
    """
    ns = max(len(st.signal) for _, st in terms)
    parts = np.zeros((len(terms), ns + max(len(st.noise) for _, st in terms)))
    for row, (c, st) in zip(parts, terms):
        np.multiply(c, st.signal, out=row[:len(st.signal)])
        np.multiply(c, st.noise, out=row[ns:ns + len(st.noise)])
    total = np.add.reduce(parts, axis=0)
    total += 0.0
    if len(terms) > 2:
        nonzero = np.add.reduce(parts != 0.0, axis=0, dtype=np.intp)
        many = (nonzero > 2).nonzero()[0]
        if many.size:
            total[many] = list(map(math.fsum, parts[:, many].T.tolist()))
    return AffineState(signal=total[:ns], noise=total[ns:])


def lin_combine(terms):
    """Weighted sum of homogeneous elements (all affine or all concrete).

    ``terms`` is a list of ``(coefficient, element)`` pairs.
    """
    if not terms:
        raise ProtocolError("lin_combine needs at least one term")
    for c, _ in terms:
        if not math.isfinite(c):
            raise NumericError(f"non-finite coefficient {c} in lin_combine")
    affine = [isinstance(e, AffineState) for _, e in terms]
    if all(affine):
        return _combine_affine(terms)
    if any(affine):
        raise TypeError("cannot mix affine and concrete elements")
    total = None
    for c, e in terms:
        v = c * np.asarray(e, dtype=np.float64)
        total = v if total is None else total + v
    return total


def predict(pred, t, x: np.ndarray) -> np.ndarray:
    """``pred(t, x)`` as a float64 array of ``x``'s shape.

    The one reading of a predictor's output.  A complex or non-numeric
    output raises ``ValidationError`` by ``check_array``'s rule, which
    copies no float64 array; so does an output of another shape, one
    that would broadcast against ``x`` included.  A NaN or infinite
    entry raises ``NumericError`` naming ``t``.
    """
    y = check_array("predictor output", pred(t, x), x.ndim, None)
    if y.shape != x.shape:
        raise ValidationError(
            f"predictor returned shape {y.shape}, expected {x.shape}")
    if not np.isfinite(y).all():
        raise NumericError(
            f"predictor returned a non-finite value at t = {t!r}")
    return y


class RunContext:
    """Holds the representation mode, RNG, predictor, and trace records.

    In trace mode, ``records`` collects ``(time, AffineState)`` pairs —
    the model-input expression of each evaluation, in evaluation order —
    and ``noise_ids`` collects noise keys in draw order.  These are
    exactly the rows and noise columns of the coefficient matrix: a
    state's ``noise[j]`` weights the draw ``noise_ids[j]``.
    """

    def __init__(self, mode: str = TRACE, predictor=None, seed: int = 0,
                 shape=None):
        if mode not in (TRACE, CONCRETE):
            raise ProtocolError(f"unknown mode {mode!r}")
        if mode == CONCRETE:
            if predictor is None:
                raise ProtocolError("concrete mode requires a predictor")
            if shape is None:
                raise ProtocolError("concrete mode requires a sample shape")
        self.mode = mode
        self.predictor = predictor
        self.shape = tuple(shape) if shape is not None else None
        self.rng = np.random.default_rng(check_int("seed", seed, 0))
        self.records: list = []
        self.noise_ids: list = []
        self._used_noise_ids: set = set()

    # ----- protocol operations ---------------------------------------
    def fresh_noise(self, noise_id):
        """A standard-normal draw (concrete) or unit basis term (trace)."""
        if noise_id in self._used_noise_ids:
            raise ProtocolError(f"noise id {noise_id!r} already used")
        self._used_noise_ids.add(noise_id)
        self.noise_ids.append(noise_id)
        if self.mode == TRACE:
            return AffineState(noise=_unit(len(self.noise_ids)))
        return self.rng.standard_normal(self.shape)

    def apply_model(self, t, x):
        """Evaluate the predictor at (t, x) through ``predict``, or record
        the matrix row."""
        if self.mode == CONCRETE:
            return predict(self.predictor, t, x)
        if not isinstance(x, AffineState):
            raise ProtocolError("trace mode requires affine states")
        idx = len(self.records)
        self.records.append((float(t), x))
        return AffineState(signal=_unit(idx + 1))
