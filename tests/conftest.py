import numpy as np
import pytest

import walraskit as wk
from support import SOLVE_INPUTS, edgeworth_asymmetric, edgeworth_symmetric


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def sym_edgeworth():
    return edgeworth_symmetric()


@pytest.fixture
def asym_edgeworth():
    return edgeworth_asymmetric()


@pytest.fixture
def symmetric_family():
    return wk.CanonicalFamily.symmetric(2)


@pytest.fixture(params=list(SOLVE_INPUTS))
def as_input(request):
    """An economy as a test hands it to ``find_equilibria``: itself or its
    field (``support.SOLVE_INPUTS``), so that the test checks both the
    closed form and the grid."""
    return SOLVE_INPUTS[request.param]
