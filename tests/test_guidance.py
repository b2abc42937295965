import numpy as np
import pytest

from nimatrix.errors import NumericError, ValidationError
from nimatrix.guidance import (BACK, DEGENERATE, FORE, MID, GuidanceStage,
                               classify_row, decompose_row, unfold)


class TestClassifyPair:
    """A two-term row ``[b, a]`` (older first) folds into one stage with
    scale ``a + b`` and weight ``a / (a + b)`` on the newer output."""

    def test_interpolation_is_mid(self):
        (stage, scale), = decompose_row([0.7, 0.3]).stages
        assert scale == pytest.approx(1.0)
        assert stage.klass == MID
        assert stage.eta_good == pytest.approx(0.3)

    def test_extrapolation_past_newer_is_fore(self):
        (stage, _), = decompose_row([-0.5, 1.5]).stages
        assert stage.klass == FORE

    def test_extrapolation_behind_older_is_back(self):
        (stage, _), = decompose_row([1.5, -0.5]).stages
        assert stage.klass == BACK

    def test_copying_one_input_is_degenerate(self):
        # a row that copies one output has one nonzero entry, so no fold
        # makes such a stage; its class is read off the stage itself
        assert GuidanceStage(eta_good=1.0, eta_bad=0.0).klass == DEGENERATE
        assert GuidanceStage(eta_good=0.0, eta_bad=1.0).klass == DEGENERATE

    def test_scale_invariance(self):
        (a, _), = decompose_row([0.7, 0.3]).stages
        (b, _), = decompose_row([7.0, 3.0]).stages
        assert a.eta_good == pytest.approx(b.eta_good)

    def test_pure_difference_rejected(self):
        with pytest.raises(NumericError):
            decompose_row([-1.0, 1.0])


class TestDecompose:
    def test_roundtrip_exact(self, rng):
        for _ in range(200):
            n = rng.integers(2, 7)
            coeffs = rng.standard_normal(n)
            try:
                d = decompose_row(coeffs)
            except NumericError:
                continue
            back = unfold(d)
            assert np.abs(np.asarray(back) - coeffs).max() < 1e-12

    def test_known_three_term_fold(self):
        # (a, b, c) folds as ((a, b) then c): the outer stage weighs the
        # newest term c against the accumulated a + b
        d = decompose_row([1.0, 1.0, 2.0])
        (s1, sc1), (s2, sc2) = d.stages
        assert sc1 == pytest.approx(2.0) and s1.eta_good == pytest.approx(0.5)
        assert sc2 == pytest.approx(4.0) and s2.eta_good == pytest.approx(0.5)
        assert d.classes == (MID, MID)

    def test_fore_appears_for_negative_older_entry(self):
        d = decompose_row([-0.5, 1.5])
        assert d.classes == (FORE,)

    def test_zero_entries_skipped(self):
        d = decompose_row([0.3, 0.0, 0.7])
        assert d.coefficients == (0.3, 0.7)

    def test_single_nonzero_rejected(self):
        with pytest.raises(ValidationError):
            decompose_row([0.0, 1.0, 0.0])

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.inf],
                                        [-np.inf, 0.5, 1.0]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_coefficient_rejected(self, coeffs):
        # a NaN would otherwise fold into NaN stages
        with pytest.raises(ValidationError):
            decompose_row(coeffs)

    def test_zero_prefix_sum_rejected(self):
        with pytest.raises(NumericError):
            decompose_row([1.0, -1.0, 0.5])


class TestClassifyRow:
    def test_all_nonnegative(self):
        assert classify_row([0.1, 0.0, 0.9]) == "all-Mid"

    def test_negative_before_diagonal(self):
        assert classify_row([-0.1, 0.2, 0.9]) == "has-Fore"

    def test_negative_diagonal(self):
        assert classify_row([0.1, 0.2, -0.9]) == "has-Back"

    def test_both(self):
        assert classify_row([-0.1, 0.2, -0.9]) == "mixed"
