import warnings

import numpy as np
import pytest

from nimatrix.oracles import Dataset, GaussianMixture
from nimatrix.schedule import make_flow, make_vp_continuous, make_vp_linear

# When an @given test fails, Hypothesis's report path imports its patch
# writer, which imports libcst where that is installed; libcst 1.0 raises
# mypy_extensions' TypedDict DeprecationWarning on import, which the
# suite's warning filters turn into an INTERNALERROR that ends the
# pytest run.  Importing the module here, with that warning ignored, keeps a
# failing property an ordinary failure.  Without libcst it is skipped.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture(scope="session")
def vp():
    return make_vp_linear()


@pytest.fixture(scope="session")
def flow():
    return make_flow()


@pytest.fixture(scope="session")
def vpc():
    return make_vp_continuous()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_dataset():
    r = np.random.default_rng(7)
    return Dataset(atoms=r.standard_normal((20, 4)),
                   labels=np.arange(20) % 3)


@pytest.fixture(scope="session")
def gmm16():
    r = np.random.default_rng(11)
    return GaussianMixture(weights=np.ones(4) / 4,
                           means=r.standard_normal((4, 16)),
                           variances=np.full(4, 0.3))


@pytest.fixture(scope="session")
def ring_gmm():
    """Eight well-separated modes on a circle in 2-D."""
    ang = 2.0 * np.pi * np.arange(8) / 8
    return GaussianMixture(weights=np.ones(8) / 8,
                           means=2.0 * np.stack([np.cos(ang), np.sin(ang)], 1),
                           variances=np.full(8, 0.02))
