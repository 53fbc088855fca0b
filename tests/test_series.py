import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelbody import (ParamTriple, PoleParam, fprime_series, phi_series_from_w,
                        ratio_series, rho_coeffs, rho_eval,
                        series_derivative, series_exp, series_integrate,
                        series_mul, series_reciprocal, taylor_from_samples)
from hankelbody.errors import InvalidInput, NonzeroConstantTerm, ZeroConstantTerm


class TestMul:
    def test_difference_of_squares(self):
        a = [1, 1, 0]
        b = [1, -1, 0]
        assert np.allclose(series_mul(a, b), [1, 0, -1])

    def test_identity_element(self):
        one = [1, 0]
        s = [2.0 + 1j, -0.5]
        assert np.allclose(series_mul(one, s), [2.0 + 1j, -0.5])

    def test_square_of_geometric_prefix(self):
        s = [1, 1, 1]
        assert np.allclose(series_mul(s, s), [1, 2, 3])

    def test_truncates_to_min_order(self):
        a = [1, 2, 3, 4]
        b = [1, 1]
        assert series_mul(a, b).shape[-1] - 1 == 1


class TestReciprocal:
    def test_geometric(self):
        s = [1, -1, 0, 0]
        assert np.allclose(series_reciprocal(s), [1, 1, 1, 1])

    def test_constant(self):
        assert np.allclose(series_reciprocal([2.0, 0, 0]),
                           [0.5, 0, 0])

    def test_scaled_geometric(self):
        s = [1, -0.5, 0]
        assert np.allclose(series_reciprocal(s), [1, 0.5, 0.25])

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal([0, 1])


class TestRatioSeries:
    def test_geometric(self):
        assert np.allclose(ratio_series([1.0], [1.0, -1.0], 6), np.ones(6), atol=0)

    def test_exact_quotient_terminates(self):
        # (1 - z^2) / (1 - z) = 1 + z
        got = ratio_series([1.0, 0.0, -1.0], [1.0, -1.0], 5)
        assert np.array_equal(got, [1, 1, 0, 0, 0])

    def test_matches_product_with_reciprocal(self, rng):
        num = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        den = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        den[:, 0] += 4.0
        pad = np.zeros((40, 8), dtype=np.complex128)
        want = series_mul(np.concatenate([num, pad], axis=1),
                          series_reciprocal(np.concatenate([den, pad], axis=1)))
        got = ratio_series(num, den, 12)
        assert got.shape == (40, 12)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_leading_axes_broadcast(self):
        den = np.array([[1.0, -0.5], [2.0, 1.0]])
        got = ratio_series([1.0, 1.0], den, 4)
        assert got.shape == (2, 4)
        assert np.allclose(got[0], [1.0, 1.5, 0.75, 0.375], atol=1e-15)

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroConstantTerm):
            ratio_series([1.0], np.array([[1.0, 1.0], [0.0, 1.0]]), 3)


class TestExp:
    def test_exp_z(self):
        e = series_exp([0, 1, 0, 0])
        assert np.allclose(e, [1, 1, 0.5, 1 / 6])

    def test_exp_zero(self):
        assert np.allclose(series_exp([0, 0]), [1, 0])

    def test_exp_2z(self):
        assert np.allclose(series_exp([0, 2, 0]), [1, 2, 2])

    def test_nonzero_constant_raises(self):
        with pytest.raises(NonzeroConstantTerm):
            series_exp([1, 1])


class TestIntegrate:
    def test_one(self):
        assert np.allclose(series_integrate([1]), [0, 1])

    def test_one_plus_z(self):
        assert np.allclose(series_integrate([1, 1]),
                           [0, 1, 0.5])

    def test_constant(self):
        c = 2.5 - 1j
        assert np.allclose(series_integrate([c]), [0, c])


class TestTaylorFromSamples:
    def test_monomial(self):
        got = taylor_from_samples(lambda z: z * z, 0.5, 4, 64)
        assert np.max(np.abs(got - [0, 0, 1, 0])) < 1e-12

    def test_geometric(self):
        got = taylor_from_samples(lambda z: 1.0 / (1.0 - z), 0.25, 3, 64)
        assert np.max(np.abs(got - [1, 1, 1])) < 1e-10

    def test_rotation_conjugate_matches_closed_form(self):
        pp = PoleParam(0.5)
        zeta = 1j
        sampled = taylor_from_samples(lambda z: rho_eval(pp, zeta, z), 0.5, 5, 256)
        closed = rho_coeffs(pp, zeta, 5)
        assert np.max(np.abs(sampled - closed)) < 1e-10

    def test_rejects_undersampling(self):
        with pytest.raises(InvalidInput):
            taylor_from_samples(lambda z: z, 0.5, 10, 16)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                min_size=1, max_size=6))
def test_polynomial_recovery_property(cs):
    poly = np.array([complex(a, b) for a, b in cs])
    got = taylor_from_samples(
        lambda z: np.polynomial.polynomial.polyval(z, poly),
        0.5, poly.size, max(64, 4 * poly.size))
    assert np.max(np.abs(got - poly)) < 1e-11


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reciprocal_identity_property(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
    c[0] = (0.1 + rng.uniform(0, 9.9)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    recip = series_reciprocal(c)
    prod = series_mul(c, recip)
    unit = np.zeros(7, complex)
    unit[0] = 1.0
    scale = max(1.0, np.max(np.convolve(np.abs(c), np.abs(recip))[:7]))
    assert np.max(np.abs(prod - unit)) / scale < 1e-12


def test_exp_integrate_derivative_relation(rng):
    for _ in range(50):
        d = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        e = series_exp(series_integrate(d)[..., :9])
        lhs = series_derivative(e)
        rhs = series_mul(e, d)
        n = min(lhs.shape[-1], rhs.shape[-1]) - 1
        assert np.max(np.abs(lhs[: n + 1] - rhs[: n + 1])) < 1e-10


def _read_only(x):
    x = np.array(x, dtype=np.complex128)
    x.setflags(write=False)
    return x


def test_outputs_are_fresh_writable_arrays(rng):
    """Read-only inputs are neither written nor aliased: every answer is a
    writable ndarray that shares no memory with an input."""
    pp = PoleParam(0.5)
    w = ParamTriple(*(_read_only(rng.uniform(-0.7, 0.7, 5) + 0.1j) for _ in range(3)))
    s = _read_only(rng.uniform(-1, 1, (5, 4)) + 1j)
    s0 = _read_only(np.concatenate([np.zeros((5, 1)), s[:, 1:]], axis=1))
    zeta = _read_only(0.3j + rng.uniform(-0.5, 0.5, 5))
    phi = _read_only(phi_series_from_w(pp, w, 4))
    calls = {
        "series_mul": (series_mul, s, s),
        "series_reciprocal": (series_reciprocal, s),
        "series_exp": (series_exp, s0),
        "series_integrate": (series_integrate, s),
        "series_derivative": (series_derivative, s),
        "series_derivative of a constant": (series_derivative, s[:, :1]),
        "ratio_series": (ratio_series, s, s, 4),
        "taylor_from_samples": (taylor_from_samples, lambda z: z * z, 0.5, 3, 16),
        "rho_coeffs": (rho_coeffs, pp, zeta, 4),
        "phi_series_from_w": (phi_series_from_w, pp, w, 4),
        "fprime_series": (fprime_series, pp, phi),
    }
    for name, (fn, *args) in calls.items():
        out = fn(*args)
        assert isinstance(out, np.ndarray) and out.flags.writeable, name
        inputs = [a for a in args if isinstance(a, np.ndarray)] + list(w)
        assert not any(np.shares_memory(out, a) for a in inputs), name


@pytest.mark.parametrize("call", [
    lambda: ratio_series([1.0], [1.0, -1.0], 0),
    lambda: taylor_from_samples(lambda z: z, 0.5, 0, 16),
    lambda: taylor_from_samples(lambda z: z, 0.0, 2, 16),
    lambda: rho_coeffs(PoleParam(0.5), 0.3, 0),
], ids=["ratio_series-no-terms", "taylor-no-terms", "taylor-zero-radius",
        "rho_coeffs-no-terms"])
def test_invalid_sizes_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("fn", [series_reciprocal, series_exp, series_integrate,
                                series_derivative, lambda a: series_mul([1.0], a)])
def test_empty_coefficient_axis_is_invalid_input(fn):
    with pytest.raises(InvalidInput):
        fn(np.zeros((3, 0)))
