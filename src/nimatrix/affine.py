"""Exact affine state algebra used to trace samplers.

A sampler state is either a concrete array or an :class:`AffineState` —
an exact linear combination ``sum_i c_i * y_i + sum_j b_j * eps_j`` of
symbolic model outputs ``y_i`` and noise draws ``eps_j``.  Every sampler
update in this package is affine, so running a sampler on affine states
produces its coefficient matrix with no approximation beyond float
arithmetic.

The same sampler code also runs concretely: samplers call the two
methods of :class:`RunContext`, and the context decides whether
``apply_model`` invokes a predictor or records a matrix row, and whether
``fresh_noise`` draws a Gaussian vector or mints a basis term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ProtocolError

TRACE = "trace"
CONCRETE = "concrete"


@dataclass(frozen=True)
class AffineState:
    """Exact linear combination of model outputs and noise draws.

    ``signal`` maps an evaluation key to its weight; ``noise`` maps a
    noise-draw key to its weight.  Missing keys mean zero.
    """

    signal: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)


def _combine_affine(terms):
    sig: dict = {}
    noi: dict = {}
    for c, st in terms:
        for k, v in st.signal.items():
            sig.setdefault(k, []).append(c * v)
        for k, v in st.noise.items():
            noi.setdefault(k, []).append(c * v)
    # fsum keeps coefficient accumulation exact to the last bit achievable
    # in double precision, well below table tolerances.
    signal = {k: math.fsum(parts) for k, parts in sig.items()}
    noise = {k: math.fsum(parts) for k, parts in noi.items()}
    return AffineState(signal=signal, noise=noise)


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


class RunContext:
    """Holds the representation mode, RNG, predictor, and trace records.

    In trace mode, ``records`` collects ``(time, AffineState)`` pairs —
    the model-input expression of each evaluation, in evaluation order —
    and ``noise_ids`` collects noise keys in draw order.  These are
    exactly the rows and noise columns of the coefficient matrix.
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
        self.rng = np.random.default_rng(seed)
        self.records: list = []
        self.noise_ids: list = []

    # ----- protocol operations ---------------------------------------
    def fresh_noise(self, noise_id):
        """A standard-normal draw (concrete) or unit basis term (trace)."""
        if noise_id in self.noise_ids:
            raise ProtocolError(f"noise id {noise_id!r} already used")
        self.noise_ids.append(noise_id)
        if self.mode == TRACE:
            return AffineState(noise={noise_id: 1.0})
        return self.rng.standard_normal(self.shape)

    def apply_model(self, t, x):
        """Evaluate the predictor at (t, x), or record the matrix row."""
        if self.mode == CONCRETE:
            return self.predictor(t, x)
        if not isinstance(x, AffineState):
            raise ProtocolError("trace mode requires affine states")
        idx = len(self.records)
        self.records.append((float(t), x))
        return AffineState(signal={idx: 1.0})
