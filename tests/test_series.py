import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelbody import (PoleParam, TruncatedSeries, ratio_series, rho_coeffs,
                        rho_eval, series_derivative, series_exp,
                        series_from_constant, series_integrate, series_mul,
                        series_reciprocal, taylor_from_samples)
from hankelbody.errors import NonzeroConstantTerm, ZeroConstantTerm


def coeffs(s):
    return np.asarray(s.coeffs)


class TestMul:
    def test_difference_of_squares(self):
        a = TruncatedSeries([1, 1, 0])
        b = TruncatedSeries([1, -1, 0])
        assert np.allclose(coeffs(series_mul(a, b)), [1, 0, -1])

    def test_identity_element(self):
        one = TruncatedSeries([1, 0])
        s = TruncatedSeries([2.0 + 1j, -0.5])
        assert np.allclose(coeffs(series_mul(one, s)), [2.0 + 1j, -0.5])

    def test_square_of_geometric_prefix(self):
        s = TruncatedSeries([1, 1, 1])
        assert np.allclose(coeffs(series_mul(s, s)), [1, 2, 3])

    def test_truncates_to_min_order(self):
        a = TruncatedSeries([1, 2, 3, 4])
        b = TruncatedSeries([1, 1])
        assert series_mul(a, b).order == 1


class TestReciprocal:
    def test_geometric(self):
        s = TruncatedSeries([1, -1, 0, 0])
        assert np.allclose(coeffs(series_reciprocal(s)), [1, 1, 1, 1])

    def test_constant(self):
        assert np.allclose(coeffs(series_reciprocal(series_from_constant(2.0, 2))),
                           [0.5, 0, 0])

    def test_scaled_geometric(self):
        s = TruncatedSeries([1, -0.5, 0])
        assert np.allclose(coeffs(series_reciprocal(s)), [1, 0.5, 0.25])

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal(TruncatedSeries([0, 1]))


class TestRatioSeries:
    def test_geometric(self):
        assert np.allclose(coeffs(ratio_series([1.0], [1.0, -1.0], 6)), np.ones(6), atol=0)

    def test_exact_quotient_terminates(self):
        # (1 - z^2) / (1 - z) = 1 + z
        got = coeffs(ratio_series([1.0, 0.0, -1.0], [1.0, -1.0], 5))
        assert np.array_equal(got, [1, 1, 0, 0, 0])

    def test_matches_product_with_reciprocal(self, rng):
        num = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        den = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        den[:, 0] += 4.0
        pad = np.zeros((40, 8), dtype=np.complex128)
        want = series_mul(TruncatedSeries(np.concatenate([num, pad], axis=1)),
                          series_reciprocal(TruncatedSeries(np.concatenate([den, pad], axis=1))))
        got = ratio_series(num, den, 12)
        assert got.coeffs.shape == (40, 12)
        assert np.max(np.abs(coeffs(got) - coeffs(want))) <= 1e-12

    def test_leading_axes_broadcast(self):
        den = np.array([[1.0, -0.5], [2.0, 1.0]])
        got = ratio_series([1.0, 1.0], den, 4)
        assert got.coeffs.shape == (2, 4)
        assert np.allclose(coeffs(got)[0], [1.0, 1.5, 0.75, 0.375], atol=1e-15)

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroConstantTerm):
            ratio_series([1.0], np.array([[1.0, 1.0], [0.0, 1.0]]), 3)


class TestExp:
    def test_exp_z(self):
        e = series_exp(TruncatedSeries([0, 1, 0, 0]))
        assert np.allclose(coeffs(e), [1, 1, 0.5, 1 / 6])

    def test_exp_zero(self):
        assert np.allclose(coeffs(series_exp(TruncatedSeries([0, 0]))), [1, 0])

    def test_exp_2z(self):
        assert np.allclose(coeffs(series_exp(TruncatedSeries([0, 2, 0]))), [1, 2, 2])

    def test_nonzero_constant_raises(self):
        with pytest.raises(NonzeroConstantTerm):
            series_exp(TruncatedSeries([1, 1]))


class TestIntegrate:
    def test_one(self):
        assert np.allclose(coeffs(series_integrate(TruncatedSeries([1]))), [0, 1])

    def test_one_plus_z(self):
        assert np.allclose(coeffs(series_integrate(TruncatedSeries([1, 1]))),
                           [0, 1, 0.5])

    def test_constant(self):
        c = 2.5 - 1j
        assert np.allclose(coeffs(series_integrate(TruncatedSeries([c]))), [0, c])


class TestTaylorFromSamples:
    def test_monomial(self):
        got = taylor_from_samples(lambda z: z * z, 0.5, 4, 64)
        assert np.max(np.abs(coeffs(got) - [0, 0, 1, 0])) < 1e-12

    def test_geometric(self):
        got = taylor_from_samples(lambda z: 1.0 / (1.0 - z), 0.25, 3, 64)
        assert np.max(np.abs(coeffs(got) - [1, 1, 1])) < 1e-10

    def test_rotation_conjugate_matches_closed_form(self):
        pp = PoleParam(0.5)
        zeta = 1j
        sampled = taylor_from_samples(lambda z: rho_eval(pp, zeta, z), 0.5, 5, 256)
        closed = rho_coeffs(pp, zeta, 5)
        assert np.max(np.abs(coeffs(sampled) - coeffs(closed))) < 1e-10

    def test_rejects_undersampling(self):
        with pytest.raises(ValueError):
            taylor_from_samples(lambda z: z, 0.5, 10, 16)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                min_size=1, max_size=6))
def test_polynomial_recovery_property(cs):
    poly = np.array([complex(a, b) for a, b in cs])
    got = taylor_from_samples(
        lambda z: np.polynomial.polynomial.polyval(z, poly),
        0.5, poly.size, max(64, 4 * poly.size))
    assert np.max(np.abs(coeffs(got) - poly)) < 1e-11


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reciprocal_identity_property(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
    c[0] = (0.1 + rng.uniform(0, 9.9)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    s = TruncatedSeries(c)
    recip = series_reciprocal(s)
    prod = coeffs(series_mul(s, recip))
    unit = np.zeros(7, complex)
    unit[0] = 1.0
    scale = max(1.0, np.max(np.convolve(np.abs(c), np.abs(coeffs(recip)))[:7]))
    assert np.max(np.abs(prod - unit)) / scale < 1e-12


def test_exp_integrate_derivative_relation(rng):
    for _ in range(50):
        d = TruncatedSeries(rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        e = series_exp(series_integrate(d).truncated(8))
        lhs = series_derivative(e)
        rhs = series_mul(e, d)
        n = min(lhs.order, rhs.order)
        assert np.max(np.abs(coeffs(lhs)[: n + 1] - coeffs(rhs)[: n + 1])) < 1e-10


def test_immutability():
    s = TruncatedSeries([1, 2])
    with pytest.raises((ValueError, AttributeError)):
        s.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        s.coeffs = np.array([1.0])
