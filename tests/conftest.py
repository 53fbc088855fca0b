from functools import cache

import numpy as np
import pytest

from hankelbody import ParamTriple, PoleParam
from hankelbody.hankel import h_p


@pytest.fixture
def pp05():
    return PoleParam(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def triples(arr):
    return [ParamTriple(*map(complex, row)) for row in arr]


@cache
def slice_max_on_grid(p: float) -> float:
    """max |h_p| over 2,000,001 equally spaced t in [0, 1], a reference for the
    slice maximum that takes no root of h_p'."""
    return float(np.max(np.abs(h_p(PoleParam(p), np.linspace(0.0, 1.0, 2_000_001)))))
