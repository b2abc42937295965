"""One integer check for every count, size and seed (``errors.check_int``).

Every integer parameter of the API is called with values that are not
integers of at least its lower bound: a fraction, a numeric string, a
bool, None, NaN and the bound minus one.  Each must raise
``ParameterError``, and a NumPy integer at the bound is accepted.
"""

import math

import numpy as np
import pytest

from nimatrix.affine import RunContext
from nimatrix.analysis import (degradation_table, wilson_center,
                               wilson_halfwidth)
from nimatrix.coeffmatrix import trace_sampler
from nimatrix.engine import RunConfig, over_enhance
from nimatrix.errors import ParameterError, check_int
from nimatrix.oracles import Dataset, GaussianMixture, make_predictor
from nimatrix.samplers import SamplerSpec, default_grid
from nimatrix.schedule import make_grid, make_vp_linear
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
    ("SamplerSpec-points", 1,
     lambda v: SamplerSpec(kind="deis-3", options={"points": v})),
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
    ("energy_distance-max_pairs", 1,
     lambda v: energy_distance(POINTS, POINTS + 1.0, max_pairs=v)),
    ("prepare_reference-max_pairs", 1,
     lambda v: prepare_reference(POINTS, max_pairs=v)),
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
