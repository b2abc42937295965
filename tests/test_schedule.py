import math

import numpy as np
import pytest

from nimatrix.errors import (DomainError, FormatError, ParameterError,
                             ValidationError)
from nimatrix.schedule import (FLOW, VP_CONTINUOUS, VP_DISCRETE, Schedule,
                               make_flow, make_grid, make_schedule,
                               make_vp_continuous, make_vp_linear,
                               mixing_coeffs)


class TestVPDiscrete:
    def test_endpoints(self, vp):
        c0, c1 = mixing_coeffs(vp, 0)
        # after one step of beta = 1e-4 the state is still almost clean
        assert c0 == pytest.approx(math.sqrt(1.0 - 1e-4))
        c0, c1 = mixing_coeffs(vp, 999)
        assert c1 == pytest.approx(0.99997982064757, abs=1e-12)

    def test_alpha_bar_monotone(self, vp):
        ab = vp.alpha_bars
        assert np.all(np.diff(ab) < 0)
        assert 0.0 < ab[-1] < ab[0] < 1.0

    def test_non_integer_time_rejected(self, vp):
        with pytest.raises(DomainError):
            mixing_coeffs(vp, 10.5)

    def test_out_of_range_time_rejected(self, vp):
        with pytest.raises(DomainError):
            mixing_coeffs(vp, 1000)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_vp_linear(beta_min=0.0)
        with pytest.raises(ParameterError):
            make_vp_linear(T=0)
        with pytest.raises(ParameterError):
            make_vp_linear(beta_min=0.5, beta_max=0.1)


class TestFlow:
    def test_linear_path(self, flow):
        for t in (0.0, 0.25, 0.5, 1.0):
            c0, c1 = mixing_coeffs(flow, t)
            assert c0 == 1.0 - t and c1 == t

    def test_out_of_range(self, flow):
        with pytest.raises(DomainError):
            mixing_coeffs(flow, 1.5)


class TestVPContinuous:
    def test_endpoints(self, vpc):
        assert vpc.alpha(0.0) == 1.0
        assert vpc.alpha(1.0) == pytest.approx(math.exp(-5.025))

    def test_log_snr_roundtrip(self, vpc):
        for t in np.linspace(0.001, 1.0, 37):
            lam = vpc.log_snr(float(t))
            assert vpc.t_from_log_snr(lam) == pytest.approx(float(t), abs=1e-10)

    def test_log_snr_decreasing(self, vpc):
        lams = [vpc.log_snr(float(t)) for t in np.linspace(0.001, 1.0, 50)]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_undefined_at_zero_sigma(self, vpc):
        with pytest.raises(DomainError):
            vpc.log_snr(0.0)


class TestDescriptorRoundtrip:
    @pytest.mark.parametrize("make", [make_vp_linear, make_flow,
                                      make_vp_continuous])
    def test_roundtrip(self, make):
        s = make()
        s2 = make_schedule(s.descriptor())
        assert s2.family == s.family
        assert s2.beta_min == s.beta_min and s2.beta_max == s.beta_max
        assert s2.descriptor() == s.descriptor()

    def test_descriptor_holds_only_the_family_fields(self):
        assert make_flow().descriptor() == {"family": FLOW}
        assert make_vp_continuous().descriptor() == {
            "family": VP_CONTINUOUS, "beta_min": 0.1, "beta_max": 20.0}
        # a vp-continuous header that still carries "T": 0 loads
        desc = {**make_vp_continuous().descriptor(), "T": 0}
        assert make_schedule(desc).descriptor() == make_vp_continuous(
        ).descriptor()

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            make_schedule({"family": "nope"})
        with pytest.raises(ParameterError):
            Schedule(family="bogus")

    @pytest.mark.parametrize("edit", [
        {"beta_min": None}, {"T": None}, {"family": None},
        {"beta_max": "abc"}, {"beta_min": [0.1]}, {"T": "x"},
        {"T": "1000"}, {"T": True}, {"beta_min": "1e-4"}],
        ids=["no-beta_min", "no-T", "no-family", "str-beta_max",
             "list-beta_min", "str-T", "str-T-number", "bool-T",
             "str-beta_min-number"])
    def test_malformed_descriptor_is_format_error(self, edit):
        desc = make_vp_linear().descriptor()
        for key, value in edit.items():
            if value is None:
                del desc[key]
            else:
                desc[key] = value
        with pytest.raises(FormatError):
            make_schedule(desc)

    def test_out_of_range_value_is_parameter_error(self):
        desc = make_vp_linear().descriptor()
        desc["beta_min"] = -1.0
        with pytest.raises(ParameterError):
            make_schedule(desc)

    # Fixed T values only: a T near 1e9 allocates gigabytes.
    @pytest.mark.parametrize("key,value", [
        ("T", 1000.5), ("T", 0), ("T", -3), ("T", 1e30), ("T", 2.0 ** 63),
        ("T", 10 ** 400), ("T", math.inf), ("T", math.nan),
        ("beta_max", 10 ** 400)],
        ids=["T-fraction", "T-zero", "T-negative", "T-1e30", "T-2^63",
             "T-10^400", "T-inf", "T-nan", "beta_max-10^400"])
    def test_bad_field_value_is_parameter_error(self, key, value):
        desc = make_vp_linear().descriptor()
        desc[key] = value
        with pytest.raises(ParameterError):
            make_schedule(desc)


class TestGrids:
    def test_vp_trailing(self, vp):
        g = make_grid(vp, 18)
        assert len(g) == 18
        assert g[0] == 999.0 and g[-1] == 0.0
        assert all(b < a for a, b in zip(g, list(g)[1:]))

    def test_flow_trailing_includes_terminal(self, flow):
        g = make_grid(flow, 18)
        assert len(g) == 19
        assert g[0] == 1.0 and g[-1] == 0.0
        assert g[1] == pytest.approx(17.0 / 18.0)

    def test_vpc_trailing(self, vpc):
        g = make_grid(vpc, 10)
        assert len(g) == 10
        assert g[0] == 1.0 and g[-1] == pytest.approx(0.001)

    def test_vpc_quadratic_concentrates_near_terminal(self, vpc):
        g = list(make_grid(vpc, 19, "quadratic"))
        diffs = [a - b for a, b in zip(g, g[1:])]
        # spacing shrinks toward the terminal end
        assert diffs[0] > diffs[-1]
        assert g[0] == 1.0 and g[-1] == pytest.approx(0.001)
        # squared linspace in sqrt(t)
        u = np.linspace(math.sqrt(1.0), math.sqrt(0.001), 19) ** 2
        assert np.allclose(g, u)

    def test_explicit_validated(self, vp):
        g = make_grid(vp, 0, "explicit", explicit=[900, 500, 100, 0])
        assert list(g) == [900.0, 500.0, 100.0, 0.0]
        # a time within the integer tolerance is stored as its integer
        g = make_grid(vp, 0, "explicit", explicit=[900.0000000001, 0])
        assert list(g) == [900.0, 0.0]
        with pytest.raises(ValidationError):
            make_grid(vp, 0, "explicit", explicit=[100, 500])
        # two distinct times that round to one integer are rejected
        with pytest.raises(ValidationError):
            make_grid(vp, 0, "explicit",
                      explicit=[999.0000000004, 999.0, 500.0, 0.0])
        with pytest.raises(ParameterError):
            make_grid(vp, 0, "explicit")

    def test_bad_rule(self, vp):
        with pytest.raises(ParameterError):
            make_grid(vp, 5, "cubic")

    def test_n_too_large(self, vp):
        with pytest.raises(ParameterError):
            make_grid(vp, 1001)
