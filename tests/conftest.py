import numpy as np
import pytest

from hankelbody import ParamTriple, PoleParam


@pytest.fixture
def pp05():
    return PoleParam(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def triples(arr):
    return [ParamTriple(*map(complex, row)) for row in arr]
