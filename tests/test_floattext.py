"""The float-to-text kernels write the bytes Python writes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelbody import PoleParam
from hankelbody.floattext import fixed6, shortest
from hankelbody.search import sample_omega_boundary, sample_region_H

#: each kernel with the Python formatter it reproduces
KERNELS = [
    pytest.param(fixed6, "%.6f".__mod__, id="fixed6"),
    pytest.param(shortest, float.__repr__, id="repr"),
    pytest.param(lambda x: shortest(x, json.dumps), json.dumps, id="json"),
]


def _texts(kernel, x):
    """The text of each field ``kernel`` gives for ``x``, NULs dropped, in
    slices of 4096 values as the region writers call it: one value a
    fallback formats can widen every field of its slice."""
    texts = []
    for i in range(0, x.size, 4096):
        fields = np.ascontiguousarray(kernel(x[i:i + 4096]))
        width = fields.shape[1]
        data = fields.tobytes()
        texts += [data[j:j + width].replace(b"\0", b"").decode("ascii")
                  for j in range(0, len(data), width)]
    return texts


def _assert_matches(kernel, reference, x):
    got = _texts(kernel, x)
    want = list(map(reference, x.tolist()))
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == x.size and not bad, bad[:5]


def _around(values):
    """``values``, each with its two float neighbours."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def _battery():
    """About 2.1e5 values of every class the kernels tell apart."""
    rng = np.random.default_rng(27)
    odd = 2 * rng.integers(1, 10**6, 2000) + 1
    parts = [
        # seven magnitude scales
        *(rng.standard_normal(16_000) * scale for scale in (1e-6, 1e-4, 1e-2, 1.0, 1e3, 1e9, 1e15)),
        # any float: raw bit patterns
        rng.integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64),
        # .6f ties (k +- 1/2)/1e6 and their neighbours
        _around((rng.integers(-10**9, 10**9, 15_000) + 0.5) / 1e6),
        # every power of two, which the repr kernel takes on this test alone,
        # with the subnormal ones, and subnormals
        _around(np.ldexp(1.0, np.arange(-1074, 1024))),
        rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64),
        # short decimals of 1 to 15 digits, which repr writes with their zeros dropped
        rng.integers(1, 10**15, 10_000) / 10.0 ** rng.integers(0, 19, 10_000),
        # exact 17- and 16-digit ties: odd/8 in [1e14, 1e15) has 18 digits
        # ending in 5, odd/4 there has 17
        (8 * 10**14 + odd) / 8, (4 * 10**14 + odd) / 4,
        # the ends of the kernels' ranges, zeros and non-finite values
        _around([1e-4, 1e9, 1e15, 1e16, 0.0, 5e-324, np.inf, np.nan]),
        # values whose digits carry into a new digit: 999999999.9999995 is
        # 1000000000.000000 in .6f, and the float below 10**k has 16 or 17 nines
        _around(10.0 ** np.arange(-5, 17)), np.array([999999999.9999995, 9.9999999999999995]),
    ]
    x = np.concatenate(parts)
    return np.concatenate([x, -x])


BATTERY = _battery()


@pytest.mark.parametrize("kernel, reference", KERNELS)
def test_kernels_match_python_on_every_value_class(kernel, reference):
    assert BATTERY.size >= 2e5
    _assert_matches(kernel, reference, BATTERY)


_floats = st.lists(st.floats(), min_size=1, max_size=64).map(np.array)
_bit_patterns = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("kernel, reference", KERNELS)
@settings(max_examples=200, deadline=None)
@given(x=st.one_of(_floats, _bit_patterns))
def test_kernels_match_python_on_any_float(kernel, reference, x):
    _assert_matches(kernel, reference, x)


# measured: repr sends 11, 15 and 253 of the 100,516 values to Python at
# p = 0.1, 0.5 and 0.9 (at most 0.25%), each with |v| < 1e-4; .6f sends none
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_region_values_rarely_fall_back(p):
    pp = PoleParam(p)
    hank = sample_region_H(pp, 20_000, 3)
    omega = sample_omega_boundary(pp, 20_000)
    x = np.concatenate([hank.points, hank.boundary, omega.boundary]).view(np.float64)
    for kernel, reference, bound in ((shortest, float.__repr__, 0.01), (fixed6, "%.6f".__mod__, 0.0)):
        sent = []
        kernel(x, lambda v: sent.append(v) or reference(v))
        assert len(sent) <= bound * x.size
