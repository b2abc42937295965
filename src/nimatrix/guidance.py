"""Self-guidance algebra over model outputs.

A two-term combination ``lambda * good + (1 - lambda) * bad`` of model
outputs is classified by its weight on the newer ("good") output:
``lambda > 1`` extrapolates past it (Fore), ``0 < lambda < 1``
interpolates (Mid), ``lambda < 0`` extrapolates behind the older output
(Back), and ``lambda in {0, 1}`` merely copies one input (Degenerate).

Any linear combination ``a * good + b * bad`` factors as
``(a + b) * (a/(a+b) * good + b/(a+b) * bad)`` — a guidance stage with a
scale.  A whole matrix row factors into a nested composition of such
stages, folded pairwise; :func:`decompose_row` performs the fold and
:func:`unfold` inverts it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, check_array

FORE = "Fore"
MID = "Mid"
BACK = "Back"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class GuidanceStage:
    eta_good: float
    eta_bad: float

    @property
    def klass(self) -> str:
        lam = self.eta_good
        if lam in (0.0, 1.0):
            return DEGENERATE
        if lam > 1.0:
            return FORE
        if lam < 0.0:
            return BACK
        return MID


@dataclass(frozen=True)
class GuidanceDecomposition:
    """Nested stages (innermost first) with per-level scales."""

    stages: tuple  # of (GuidanceStage, scale)
    coefficients: tuple  # the original nonzero coefficient list

    @property
    def classes(self) -> tuple:
        return tuple(stage.klass for stage, _ in self.stages)


def decompose_row(coeffs):
    """Fold an ordered coefficient row into nested guidance stages.

    Coefficients are a 1-D array, oldest output first (``check_array``:
    a non-finite one raises :class:`ValidationError`).  Zero entries are
    skipped.  The two oldest terms pair up first and each newer term
    folds around the accumulated combination, the newer side playing
    "good".
    """
    coeffs = check_array("coefficients", coeffs, 1)
    nz = coeffs[coeffs != 0.0].tolist()
    if len(nz) < 2:
        raise ValidationError(
            f"need at least two nonzero coefficients, got {len(nz)}")
    stages = []
    acc = nz[0]
    for k, good in enumerate(nz[1:], start=2):
        total = good + acc
        if total == 0.0:
            raise NumericError(
                f"fold singularity: the first {k} folded terms sum to zero")
        stages.append((GuidanceStage(eta_good=good / total,
                                     eta_bad=acc / total), total))
        acc = total
    return GuidanceDecomposition(stages=tuple(stages),
                                 coefficients=tuple(nz))


def unfold(decomp: GuidanceDecomposition):
    """Reconstruct the nonzero coefficient list (oldest first) from the
    stages."""
    inner = None
    prev_scale = None
    for stage, scale in decomp.stages:
        if inner is None:
            # bad is the older side of the innermost pair
            inner = [stage.eta_bad * scale, stage.eta_good * scale]
        else:
            # the accumulated (older) combination re-enters as "bad"
            factor = stage.eta_bad * scale / prev_scale
            inner = [v * factor for v in inner] + [stage.eta_good * scale]
        prev_scale = scale
    return inner


def classify_row(coeffs) -> str:
    """Sign-pattern summary of one matrix row.

    All entries nonnegative (with at least one positive) reads as pure
    interpolation: ``all-Mid``.  A negative weight on an older output
    means the row extrapolates beyond newer outputs, so some pairing is
    a Fore stage: ``has-Fore``.  A negative weight on the newest
    (diagonal) output reads as ``has-Back``; both kinds of negativity
    give ``mixed``.
    """
    arr = check_array("coefficients", coeffs, 1)
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        return "all-Mid"
    last = nz[-1]
    neg_before = bool(np.any(arr[:last] < 0.0))
    neg_diag = bool(arr[last] < 0.0)
    if not neg_before and not neg_diag:
        return "all-Mid"
    if neg_before and neg_diag:
        return "mixed"
    return "has-Fore" if neg_before else "has-Back"


def classify_matrix(m) -> list:
    """Per-row sign-pattern summary for a coefficient matrix.

    Returns ``(row_time, summary)`` pairs, skipping rows with no signal
    weight (the pure-noise starting row).
    """
    out = []
    for t, row in zip(m.row_times, m.signal):
        if not np.any(row != 0.0):
            continue
        out.append((t, classify_row(row)))
    return out
