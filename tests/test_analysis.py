import numpy as np
import pytest

from nimatrix.analysis import (degradation_table, radial_spectrum,
                               snr_profile,
                               submerged_fraction, wilson_center,
                               wilson_halfwidth)
from nimatrix.errors import ParameterError, ValidationError
from nimatrix.oracles import Dataset


class TestWilson:
    def test_known_value(self):
        # 8/10 successes, 95%: interval roughly (0.49, 0.94)
        c = wilson_center(8, 10)
        h = wilson_halfwidth(8, 10)
        assert c - h == pytest.approx(0.4902, abs=2e-3)
        assert c + h == pytest.approx(0.9433, abs=2e-3)

    def test_degenerate_rates_have_positive_width(self):
        assert wilson_halfwidth(0, 100) > 0.0
        assert wilson_halfwidth(100, 100) > 0.0

    def test_no_trials_rejected(self):
        with pytest.raises(ParameterError):
            wilson_halfwidth(0, 0)
        with pytest.raises(ParameterError):
            wilson_center(0, 0)

    @pytest.mark.parametrize("fn", [wilson_halfwidth, wilson_center])
    @pytest.mark.parametrize("successes,trials", [(5, 3), (-1, 3),
                                                  (np.nan, 3)])
    def test_successes_outside_trials_rejected(self, fn, successes, trials):
        with pytest.raises(ParameterError, match="successes"):
            fn(successes, trials)


class TestDegradation:
    def test_to_source_implies_degraded(self, small_dataset, vp):
        # the times span both regimes, so both counts take inner values
        rep = degradation_table(small_dataset, [vp], [[50, 200, 400, 700]],
                                trials=400, seed=1)
        for r in rep.rows:
            assert 0.0 <= r.rate_to_source <= r.rate_degraded <= 1.0
        assert any(0.0 < r.rate_degraded < 1.0 for r in rep.rows)

    def test_low_noise_always_concentrates(self, vp, rng):
        ds = Dataset(atoms=10.0 * np.eye(8))
        rep = degradation_table(ds, [vp], [[10]], trials=200, seed=0)
        assert rep.rows[0].rate_degraded == 1.0
        assert rep.rows[0].rate_to_source == 1.0

    def test_high_noise_never_concentrates(self, vp, rng):
        ds = Dataset(atoms=np.random.default_rng(0).standard_normal((500, 4)))
        rep = degradation_table(ds, [vp], [[990]], trials=200, seed=0)
        assert rep.rows[0].rate_degraded == 0.0

    @pytest.mark.parametrize("trials", [10 ** 12, 2 ** 62])
    def test_unallocatable_trials_are_parameter_error(self, small_dataset, vp,
                                                      trials):
        # NumPy refuses both before touching memory: MemoryError for
        # 10**12, "array is too big" ValueError for 2**62
        with pytest.raises(ParameterError, match=(
                f"trials = {trials} needs {8 * trials} bytes")):
            degradation_table(small_dataset, [vp], [[500]], trials=trials)

    def test_cells_are_seed_stable(self, small_dataset, vp):
        a = degradation_table(small_dataset, [vp], [[300, 600]], trials=100,
                              seed=4)
        b = degradation_table(small_dataset, [vp], [[300, 600]], trials=100,
                              seed=4)
        assert a == b

    def test_flat_time_list_rejected(self, small_dataset, flow):
        # one list of times is no longer shared by every schedule
        with pytest.raises(ParameterError, match="one time list per"):
            degradation_table(small_dataset, [flow], [0.2, 0.8], trials=50)
        with pytest.raises(ParameterError, match="one time list per"):
            degradation_table(small_dataset, [flow, flow], [0.2, 0.8],
                              trials=50)

    def test_csv_header(self, small_dataset, vp):
        rep = degradation_table(small_dataset, [vp], [[300]], trials=50)
        assert rep.to_csv().splitlines()[0].startswith("family,t,")

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.5,
                                           0.0, 1.0, 2.0])
    def test_threshold_outside_unit_interval_rejected(self, small_dataset,
                                                      vp, threshold):
        # the max weight lies in (0, 1]: such a threshold passes every
        # draw or none, whatever the posterior
        with pytest.raises(ParameterError, match="threshold"):
            degradation_table(small_dataset, [vp], [[300]], trials=5,
                              threshold=threshold)

    @pytest.mark.parametrize("trials", [0, -3, 2.5, True, "3", None])
    def test_trials_not_a_positive_integer_rejected(self, small_dataset, vp,
                                                    trials):
        with pytest.raises(ParameterError, match="trials"):
            degradation_table(small_dataset, [vp], [[300]], trials=trials)

    def test_numpy_integer_trials_accepted(self, small_dataset, vp):
        rep = degradation_table(small_dataset, [vp], [[300]],
                                trials=np.int64(50))
        assert rep == degradation_table(small_dataset, [vp], [[300]],
                                        trials=50)

    @pytest.mark.parametrize("n_schedules,times", [(1, []), (0, [[300]]),
                                                   (0, [])],
                             ids=["no-times", "no-schedules", "neither"])
    def test_empty_inputs_rejected(self, small_dataset, vp, n_schedules,
                                   times):
        with pytest.raises(ParameterError):
            degradation_table(small_dataset, [vp] * n_schedules, times,
                              trials=5)


class TestSpectrum:
    def test_constant_image_is_dc_only(self):
        spec = radial_spectrum(np.full((16, 16), 3.0))
        assert spec[0] == pytest.approx(3.0 * 256)
        assert np.allclose(spec[1:], 0.0)

    def test_single_mode_lands_in_its_band(self):
        n = 32
        x = np.arange(n)
        img = np.cos(2 * np.pi * 5 * x[None, :] / n) * np.ones((n, 1))
        spec = radial_spectrum(img)
        assert np.argmax(spec) == 5

    def test_requires_square(self):
        with pytest.raises(ValidationError):
            radial_spectrum(np.zeros((4, 8)))
        with pytest.raises(ValidationError):
            radial_spectrum(np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, flow, value):
        img = np.ones((8, 8))
        img[3, 5] = value
        with pytest.raises(ValidationError, match="non-finite"):
            radial_spectrum(img)
        with pytest.raises(ValidationError, match="non-finite"):
            snr_profile(img, flow, 0.5)

    def test_snr_decreases_with_noise_level(self, flow):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((32, 32)).cumsum(axis=0).cumsum(axis=1)
        p1 = snr_profile(img, flow, 0.2)
        p2 = snr_profile(img, flow, 0.8)
        assert np.all(p2 <= p1)
        assert submerged_fraction(p2) >= submerged_fraction(p1)

    def test_zero_noise_is_infinite_snr(self, flow):
        p = snr_profile(np.ones((8, 8)), flow, 0.0)
        assert np.all(np.isinf(p))

    def test_submerged_empty_rejected(self):
        with pytest.raises(ParameterError):
            submerged_fraction([])

    @pytest.mark.parametrize("profile", [[np.nan], [0.5, np.nan, 2.0]])
    def test_submerged_nan_rejected(self, profile):
        with pytest.raises(ValidationError, match="NaN"):
            submerged_fraction(profile)
