"""One integer check for every count, size and seed (``errors.check_int``),
one real check for every time, threshold, rate and sampler option
(``errors.check_real``), and one array check for every array argument
(``errors.check_array``), over the public API ``nimatrix.__all__``.

Every integer parameter of the API is called with values that are not
integers of at least its lower bound: a fraction, a numeric string, a
bool, None, NaN and the bound minus one.  Each must raise
``ParameterError``, and a NumPy integer at the bound is accepted.

Every real parameter of the API is called with a string, None, a bool,
NaN, an inf or a -inf, a complex, a list and an integer too large for a
float.  Each must raise a ``NimatrixError``, and a NumPy float (and a
NumPy integer, where the valid value is one) is accepted.

Every array parameter of the API is called with arrays that hold a NaN,
an inf or a -inf, an empty array, a scalar, a 3-D array, a string and
a complex array.  Each must return finite output or raise a
``NimatrixError``.

Every parameter of a public function or input class is in one of the
three tables or on a short list of parameters that hold no number.
"""

import dataclasses
import inspect
import math
import types
from fractions import Fraction

import numpy as np
import pytest

import nimatrix
from nimatrix.affine import RunContext
from nimatrix.analysis import (degradation_table, radial_spectrum,
                               snr_profile, submerged_fraction,
                               wilson_center, wilson_halfwidth)
from nimatrix.coeffmatrix import (deviation_trend, normalize_rows, row_sums,
                                  trace_sampler)
from nimatrix.engine import RunConfig, over_enhance
from nimatrix.errors import (DomainError, NimatrixError, NumericError,
                             ParameterError, ValidationError, check_array,
                             check_int, check_real)
from nimatrix.guidance import classify_row, decompose_row
from nimatrix.oracles import (Dataset, GaussianMixture, make_predictor,
                              posterior_mean_dataset, posterior_mean_gmm,
                              posterior_top, posterior_weights,
                              score_from_x0hat)
from nimatrix.samplers import SamplerSpec, default_grid
from nimatrix.schedule import (make_flow, make_grid, make_vp_continuous,
                               make_vp_linear, mixing_coeffs)
from nimatrix.search import (SearchSpace, energy_distance, optimize_matrix,
                             prepare_reference)

VP = make_vp_linear()
DDIM = SamplerSpec(kind="ddim")
BASE = trace_sampler(DDIM, n_evals=3)
PRED = make_predictor(GaussianMixture(weights=[0.5, 0.5],
                                      means=[[-1.0, 0.0], [1.0, 0.5]],
                                      variances=[0.1, 0.2]), VP)
POINTS = np.random.default_rng(1).standard_normal((8, 2))
DATA = Dataset(atoms=np.random.default_rng(7).standard_normal((20, 4)))


def _search(**kw):
    return optimize_matrix(SearchSpace(base=BASE), PRED, POINTS,
                           **{"budget": 2, "n_samples": 4, **kw})


#: (callable and parameter, the parameter's lower bound, call with it)
CALLS = [
    ("make_vp_linear-T", 1, lambda v: make_vp_linear(T=v)),
    ("make_grid-n", 1, lambda v: make_grid(VP, v)),
    ("default_grid-n_evals", 1, lambda v: default_grid(DDIM, VP, v)),
    ("trace_sampler-n_evals", 1, lambda v: trace_sampler(DDIM, n_evals=v)),
    ("deviation_trend-step_counts", 1,
     lambda v: deviation_trend(DDIM, step_counts=(v, 2))),
    ("RunConfig-n", 1, lambda v: RunConfig(matrix=BASE, predictor=PRED, n=v)),
    ("RunConfig-seed", 0,
     lambda v: RunConfig(matrix=BASE, predictor=PRED, seed=v)),
    ("over_enhance-k", 0,
     lambda v: over_enhance(PRED, VP, 300, np.zeros((1, 2)), k=v)),
    ("over_enhance-seed", 0,
     lambda v: over_enhance(PRED, VP, 300, np.zeros((1, 2)), k=1, seed=v)),
    ("RunContext-seed", 0, lambda v: RunContext(seed=v)),
    ("SearchSpace-band", 1, lambda v: SearchSpace(base=BASE, band=v)),
    ("optimize_matrix-budget", 0, lambda v: _search(budget=v)),
    ("optimize_matrix-n_samples", 1, lambda v: _search(n_samples=v)),
    ("optimize_matrix-seed", 0, lambda v: _search(seed=v)),
    ("degradation_table-trials", 1,
     lambda v: degradation_table(DATA, [VP], [[300]], trials=v)),
    ("degradation_table-seed", 0,
     lambda v: degradation_table(DATA, [VP], [[300]], trials=5, seed=v)),
    ("wilson_halfwidth-trials", 1, lambda v: wilson_halfwidth(0, v)),
    ("wilson_center-trials", 1, lambda v: wilson_center(0, v)),
    ("wilson_halfwidth-successes", 0, lambda v: wilson_halfwidth(v, 3)),
    ("wilson_center-successes", 0, lambda v: wilson_center(v, 3)),
]
CALL_IDS = [name for name, _, _ in CALLS]
BAD = [(2.5, "2.5"), ("3", "string"), (True, "True"), (None, "None"),
       (math.nan, "nan"), ("below", "low-1")]


@pytest.mark.parametrize("value", [v for v, _ in BAD],
                         ids=[i for _, i in BAD])
@pytest.mark.parametrize("name,low,call", CALLS, ids=CALL_IDS)
def test_not_an_integer_at_least_low_rejected(name, low, call, value):
    if value == "below":
        value = low - 1
    with pytest.raises(ParameterError):
        call(value)


@pytest.mark.parametrize("name,low,call", CALLS, ids=CALL_IDS)
def test_numpy_integer_at_low_accepted(name, low, call):
    call(np.int64(low))


def test_values_are_stored_as_python_ints():
    cfg = RunConfig(matrix=BASE, predictor=PRED, n=np.int64(2),
                    seed=np.uint8(3))
    assert (type(cfg.n), type(cfg.seed)) == (int, int)
    assert type(SearchSpace(base=BASE, band=np.int32(2)).band) is int
    assert type(make_vp_linear(T=np.int64(10)).T) is int


class TestCheckInt:
    def test_returns_an_int(self):
        assert check_int("n", np.int16(4), 1) == 4
        assert type(check_int("n", np.int16(4), 1)) is int

    @pytest.mark.parametrize("low,word", [(1, "positive"),
                                          (0, "non-negative")])
    def test_message_names_the_bound_and_value(self, low, word):
        with pytest.raises(ParameterError, match=(
                f"^need a {word} integer trials, got 2.5$")):
            check_int("trials", 2.5, low)

    def test_no_lower_bound_takes_any_integer(self):
        assert check_int("label", np.int64(-7), None) == -7
        with pytest.raises(ParameterError,
                           match="^need an integer label, got True$"):
            check_int("label", True, None)

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), np.True_,
                                       np.array(3), [3]])
    def test_integer_valued_non_integers_rejected(self, value):
        with pytest.raises(ParameterError):
            check_int("n", value, 1)

    def test_integer_too_long_to_print_is_a_parameter_error(self):
        # repr of an int past Python's 4300-digit limit raises ValueError
        with pytest.raises(ParameterError, match=(
                "^need a non-negative integer seed, got an integer of "
                "16610 bits$")):
            check_int("seed", -10 ** 5000, 0)
        with pytest.raises(ParameterError, match="got a list too long to "
                                                 "print$"):
            check_int("n", [10 ** 5000], 1)


#: The mixture of ``PRED``, as keyword arguments.
MIX = {"weights": [0.5, 0.5], "means": [[-1.0, 0.0], [1.0, 0.5]],
       "variances": [0.1, 0.2]}
IMAGE = np.random.default_rng(2).standard_normal((8, 8))

#: (callable and array parameter, a valid value, call with a value)
ARRAY_CALLS = [
    ("posterior_mean_dataset-x", np.zeros((2, 4)),
     lambda v: posterior_mean_dataset(DATA, VP, 300, v)),
    ("posterior_weights-x", np.zeros((2, 4)),
     lambda v: posterior_weights(DATA, VP, 300, v)),
    ("posterior_top-x", np.zeros((2, 4)),
     lambda v: posterior_top(DATA, VP, 300, v)),
    ("posterior_mean_gmm-x", np.zeros((2, 2)),
     lambda v: posterior_mean_gmm(PRED.source, VP, 300, v)),
    ("energy_distance-a", POINTS, lambda v: energy_distance(v, POINTS)),
    ("energy_distance-b", POINTS, lambda v: energy_distance(POINTS, v)),
    ("prepare_reference-points", POINTS, prepare_reference),
    ("optimize_matrix-reference", POINTS,
     lambda v: optimize_matrix(SearchSpace(base=BASE), PRED, v, budget=2,
                               n_samples=4)),
    ("Dataset-atoms", DATA.atoms, lambda v: Dataset(atoms=v)),
    ("Dataset-labels", np.arange(20) % 3,
     lambda v: Dataset(atoms=DATA.atoms, labels=v)),
    *((f"GaussianMixture-{key}", MIX[key],
       lambda v, key=key: GaussianMixture(**{**MIX, key: v}))
      for key in MIX),
    ("CoefficientMatrix-signal", BASE.signal,
     lambda v: dataclasses.replace(BASE, signal=v)),
    ("CoefficientMatrix-noise", BASE.noise,
     lambda v: dataclasses.replace(BASE, noise=v)),
    ("normalize_rows-targets", row_sums(BASE.signal),
     lambda v: normalize_rows(BASE, v)),
    ("radial_spectrum-img", IMAGE, radial_spectrum),
    ("snr_profile-img", IMAGE, lambda v: snr_profile(v, make_flow(), 0.5)),
    ("submerged_fraction-profile", [0.5, 2.0], submerged_fraction),
    ("decompose_row-coeffs", [0.7, 0.3], decompose_row),
    ("classify_row-coeffs", [0.1, -0.9], classify_row),
    ("over_enhance-x_init", np.zeros((1, 2)),
     lambda v: over_enhance(PRED, VP, 300, v, k=1)),
    ("score_from_x0hat-x", np.zeros(2),
     lambda v: score_from_x0hat(VP, 300, v, np.ones(2))),
    ("score_from_x0hat-x0_hat", np.ones(2),
     lambda v: score_from_x0hat(VP, 300, np.zeros(2), v)),
    ("make_grid-explicit", [900, 500, 0],
     lambda v: make_grid(VP, None, "explicit", explicit=v)),
    ("trace_sampler-grid", (999.0, 500.0, 0.0),
     lambda v: trace_sampler(DDIM, s=VP, grid=v)),
]
BAD_ARRAYS = ["nan", "inf", "-inf", "empty", "scalar", "3-D", "string",
              "complex"]


def _bad_array(valid, kind):
    """``valid`` spoiled as ``kind`` says."""
    a = np.array(valid, dtype=np.float64)
    if kind in ("nan", "inf", "-inf"):
        a.flat[-1] = float(kind)
        return a
    if kind == "complex":
        a = a.astype(np.complex128)
        a.flat[-1] += 1j
        return a
    return {"empty": np.empty((0,) + a.shape[1:]), "scalar": 1.0,
            "3-D": np.ones((2, 2, 2)), "string": "abc"}[kind]


def _finite(out) -> bool:
    """Whether every number in a result is finite."""
    if isinstance(out, str) or out is None:
        return True
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name))
                   for f in dataclasses.fields(out))
    if isinstance(out, dict):
        return _finite(list(out.values()))
    if isinstance(out, (list, tuple)):
        return all(map(_finite, out))
    return bool(np.isfinite(np.asarray(out, dtype=np.float64)).all())


@pytest.mark.parametrize("name,valid,call", ARRAY_CALLS,
                         ids=[name for name, _, _ in ARRAY_CALLS])
def test_valid_array_gives_finite_output(name, valid, call):
    assert _finite(call(valid))


@pytest.mark.parametrize("kind", BAD_ARRAYS)
@pytest.mark.parametrize("name,valid,call", ARRAY_CALLS,
                         ids=[name for name, _, _ in ARRAY_CALLS])
def test_bad_array_gives_finite_output_or_typed_error(name, valid, call,
                                                      kind):
    # the suite's filters make any RuntimeWarning a failure too
    try:
        out = call(_bad_array(valid, kind))
    except NimatrixError:
        return
    assert _finite(out)


@pytest.mark.parametrize("make", [
    lambda: Dataset(atoms=np.empty((3, 0))),
    lambda: Dataset(atoms=np.empty((0, 0))),
    lambda: GaussianMixture(**{**MIX, "means": [[], []]}),
    lambda: GaussianMixture(weights=[], means=np.empty((0, 2)),
                            variances=[]),
], ids=["Dataset-d0", "Dataset-n0-d0", "GaussianMixture-d0",
        "GaussianMixture-k0"])
def test_source_without_atoms_or_dimensions_rejected(make):
    # a dataset or mixture of dimension 0 was accepted, and its predictor
    # ended in NumPy's bare ValueError
    with pytest.raises(ValidationError, match="must be a non-empty"):
        make()


class TestCheckArray:
    def test_returns_float64_without_copying_float64(self):
        x = np.zeros((2, 3))
        assert check_array("x", x, 2) is x
        got = check_array("x", [[1, 2]], (1, 2))
        assert got.dtype == np.float64 and got.shape == (1, 2)

    @pytest.mark.parametrize("value", ["abc", [[1.0], [1.0, 2.0]], {}],
                             ids=["string", "ragged", "dict"])
    def test_non_numeric_is_validation_error(self, value):
        with pytest.raises(ValidationError, match="^atoms must be numeric"):
            check_array("atoms", value, 2)

    @pytest.mark.parametrize("value", [
        np.array([[1 + 5j, 2], [3, 4j]]), np.array([[1.0, 2.0]], np.complex64),
        np.complex128(1j)], ids=["complex128", "complex64", "scalar"])
    def test_complex_is_validation_error(self, value):
        # NumPy casts a complex array to float64 by dropping the imaginary
        # part, with only a ComplexWarning
        with pytest.raises(ValidationError,
                           match=r"^atoms must be real, got dtype complex"):
            check_array("atoms", value, 2)

    def test_message_names_the_dimension_counts_and_shape(self):
        with pytest.raises(ValidationError, match=(
                r"^need 1-D or 2-D states, got shape \(\)$")):
            check_array("states", 1.0, (1, 2))
        with pytest.raises(ValidationError,
                           match=r"^need 2-D signal, got shape \(2,\)$"):
            check_array("signal", [0.0, 1.0], 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_the_given_error(self, value):
        with pytest.raises(ValidationError, match="^non-finite profile$"):
            check_array("profile", [1.0, value], 1)
        with pytest.raises(NumericError, match="^non-finite states$"):
            check_array("states", [1.0, value], 1, NumericError)
        got = check_array("profile", [1.0, value], 1, nonfinite=None)
        assert got[1] == value or np.isnan(got[1])


#: (callable and real parameter, a valid value, call with a value)
REAL_CALLS = [
    ("mixing_coeffs-t", 300, lambda v: mixing_coeffs(VP, v)),
    ("posterior_weights-t", 300,
     lambda v: posterior_weights(DATA, VP, v, np.zeros(4))),
    ("posterior_mean_dataset-t", 300,
     lambda v: posterior_mean_dataset(DATA, VP, v, np.zeros(4))),
    ("posterior_top-t", 300,
     lambda v: posterior_top(DATA, VP, v, np.zeros(4))),
    ("posterior_mean_gmm-t", 300,
     lambda v: posterior_mean_gmm(PRED.source, VP, v, np.zeros(2))),
    ("Predictor-t", 300, lambda v: PRED(v, np.zeros(2))),
    ("score_from_x0hat-t", 300,
     lambda v: score_from_x0hat(VP, v, np.zeros(2), np.ones(2))),
    ("over_enhance-t", 300,
     lambda v: over_enhance(PRED, VP, v, np.zeros((1, 2)), k=1)),
    # a flow time: the continuous branch of mixing_coeffs
    ("snr_profile-t", 1, lambda v: snr_profile(IMAGE, make_flow(), v)),
    ("degradation_table-times", 300,
     lambda v: degradation_table(DATA, [VP], [[v]], trials=5)),
    ("degradation_table-threshold", 0.5,
     lambda v: degradation_table(DATA, [VP], [[300]], trials=5,
                                 threshold=v)),
    ("make_vp_linear-beta_min", 1e-4, lambda v: make_vp_linear(beta_min=v)),
    ("make_vp_linear-beta_max", 0.02, lambda v: make_vp_linear(beta_max=v)),
    ("make_vp_continuous-beta_min", 1,
     lambda v: make_vp_continuous(beta_min=v)),
    ("make_vp_continuous-beta_max", 20,
     lambda v: make_vp_continuous(beta_max=v)),
    ("SamplerSpec-options", 0.5,
     lambda v: SamplerSpec(kind="dpm-solver-2s", options={"r1": v})),
    # the terminal row, the one row time no column time repeats
    ("CoefficientMatrix-row_times", -1,
     lambda v: dataclasses.replace(BASE, row_times=BASE.row_times[:-1] + (v,))),
    ("CoefficientMatrix-col_times", 999,
     lambda v: dataclasses.replace(BASE, row_times=(v, *BASE.row_times[1:]),
                                   col_times=(v, *BASE.col_times[1:]))),
    ("CoefficientMatrix-noise_times", 999,
     lambda v: dataclasses.replace(BASE,
                                   noise_times=(v, *BASE.noise_times[1:]))),
]
REAL_IDS = [name for name, _, _ in REAL_CALLS]
BAD_REALS = [("x", "string"), (None, "None"), (True, "True"),
             (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
             (1 + 0j, "complex"), ([0.5], "list"), (10 ** 400, "10^400")]


@pytest.mark.parametrize("value", [v for v, _ in BAD_REALS],
                         ids=[i for _, i in BAD_REALS])
@pytest.mark.parametrize("name,valid,call", REAL_CALLS, ids=REAL_IDS)
def test_not_a_finite_real_rejected(name, valid, call, value):
    with pytest.raises(NimatrixError):
        call(value)


@pytest.mark.parametrize("name,valid,call", REAL_CALLS, ids=REAL_IDS)
def test_numpy_reals_accepted(name, valid, call):
    call(np.float64(valid))
    if float(valid).is_integer():
        call(np.int64(valid))


class TestCheckReal:
    def test_returns_a_float(self):
        for value in (np.float32(0.5), np.int64(3), 7, Fraction(1, 4)):
            assert type(check_real("t", value)) is float
        x = 0.1
        assert check_real("t", x) is x

    def test_message_names_the_value_and_error_class(self):
        with pytest.raises(DomainError,
                           match="^time must be a finite number, got nan$"):
            check_real("time", math.nan, DomainError)
        with pytest.raises(ParameterError, match=(
                "^beta_max must be a finite number, got one too large for "
                "a float$")):
            check_real("beta_max", 10 ** 400)

    def test_value_too_long_to_print_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match=(
                "^t must be a finite number, got a list too long to print$")):
            check_real("t", [10 ** 5000])


#: Parameters that hold no number for the three checks.
NON_NUMERIC = {
    # objects of the package's own types, and lists of them
    "s", "ds", "g", "m", "spec", "space", "base", "matrix", "cfg", "decomp",
    "pred", "predictor", "source", "schedule", "schedules",
    # names, modes, file paths and a callback
    "kind", "rule", "mode", "name", "path", "log",
    # a schedule header: make_schedule checks its fields (test_schedule)
    "schedule_info",
    # a dataset label, where None selects every atom; an integer one goes
    # through check_int (test_oracles)
    "label",
}
#: Classes the API returns; a Schedule is built by the make_* helpers.
RESULTS = {"DegradationReport", "GuidanceDecomposition", "GuidanceStage",
           "MarginalReport", "PreparedReference", "RunResult",
           "SearchResult", "Schedule"}


def test_every_public_parameter_is_in_a_table():
    covered = {name for name, _, _ in CALLS + ARRAY_CALLS + REAL_CALLS}
    missing = [f"{api}-{param}" for api in nimatrix.__all__
               if api not in RESULTS
               for param in inspect.signature(getattr(nimatrix, api)).parameters
               if param not in NON_NUMERIC and f"{api}-{param}" not in covered]
    assert missing == []


def test_all_lists_only_the_api():
    namespace = {}
    exec("from nimatrix import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(nimatrix.__all__)
    assert len(set(nimatrix.__all__)) == len(nimatrix.__all__) == 51
    assert not any(isinstance(getattr(nimatrix, api), types.ModuleType)
                   for api in nimatrix.__all__)
    assert RESULTS <= set(nimatrix.__all__)
