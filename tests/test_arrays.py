"""Every chain and series function has one body for scalars and arrays: a
stacked call must give the row-by-row scalar answers."""

import numpy as np
import pytest

from hankelbody import (CoeffTriple, ParamTriple, PoleParam, TruncatedSeries,
                        a_from_c, a_from_phi, blaschke_psi, c_from_sigma,
                        c_from_w, derivatives_at, hankel2, hankel_from_c,
                        hankel_from_sigma, phi_evaluator, phi_p,
                        phi_series_from_w, series_add, series_derivative,
                        series_exp, series_integrate, series_mul,
                        series_reciprocal, sigma_from_w, tau_from_c, tau_from_w,
                        taylor_from_samples, w_from_sigma)
from hankelbody.errors import InvalidInput
from hankelbody.hankel import ACoeffs
from hankelbody.search import sample_polydisk

#: evaluation points for the evaluator closures
ZS = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)


def trailing(t):
    """Parameters with a trailing axis, to meet an axis of points."""
    return ParamTriple(*(np.asarray(x)[..., None] for x in t))


def series(*xs):
    return TruncatedSeries(np.stack(xs, axis=-1))


CASES = {
    "c_from_w": lambda pp, t: c_from_w(pp, t),
    "c_from_sigma": lambda pp, t: c_from_sigma(pp, t),
    "sigma_from_w": lambda pp, t: sigma_from_w(pp, t),
    "w_from_sigma": lambda pp, t: w_from_sigma(pp, t),
    "tau_from_w": lambda pp, t: tau_from_w(pp, t),
    "tau_from_c": lambda pp, t: tau_from_c(pp, CoeffTriple(*t)),
    "a_from_c": lambda pp, t: a_from_c(pp, CoeffTriple(*t)),
    "hankel2": lambda pp, t: hankel2(ACoeffs(*t)),
    "hankel_from_c": lambda pp, t: hankel_from_c(pp, CoeffTriple(*t)),
    "phi_p": lambda pp, t: phi_p(pp, t),
    "hankel_from_sigma": lambda pp, t: hankel_from_sigma(pp, t),
    "phi_series_from_w": lambda pp, t: phi_series_from_w(pp, t, 9),
    "phi_evaluator": lambda pp, t: phi_evaluator(pp, trailing(t))(ZS),
    "blaschke_psi": lambda pp, t: blaschke_psi(pp, *trailing(t))(ZS),
    "derivatives_at": lambda pp, t: derivatives_at(
        blaschke_psi(pp, *trailing(t)), pp.p, 4, radius=0.1),
    "taylor_from_samples": lambda pp, t: taylor_from_samples(
        blaschke_psi(pp, *trailing(t)), 0.2, 6),
    "TruncatedSeries": lambda pp, t: series(*t)[1],
    "series_add": lambda pp, t: series_add(series(*t), series(t.x2, t.x0, t.x1)),
    "series_mul": lambda pp, t: series_mul(series(*t), series(t.x2, t.x0, t.x1)),
    "series_reciprocal": lambda pp, t: series_reciprocal(series(2.0 + t.x0, t.x1, t.x2)),
    "series_exp": lambda pp, t: series_exp(series(0.0 * t.x0, t.x1, t.x2)),
    "series_integrate": lambda pp, t: series_integrate(series(*t)),
    "series_derivative": lambda pp, t: series_derivative(series(*t)),
    "a_from_phi": lambda pp, t: a_from_phi(pp, phi_series_from_w(pp, t, 9)),
}

#: the functions that reject parameters outside the closed polydisk
CHECKED = ("c_from_w", "c_from_sigma", "sigma_from_w", "w_from_sigma", "tau_from_w")


def flat(out):
    """A function's answer as one array, with any batch axis first."""
    if isinstance(out, TruncatedSeries):
        return out.coeffs
    if isinstance(out, tuple):
        return np.stack(out, axis=-1)
    return np.asarray(out)


@pytest.fixture(scope="module")
def stacked():
    """200 polydisk triples: area-uniform, a tenth of the moduli exactly 1,
    plus the corners of the closed polydisk."""
    W = sample_polydisk(np.random.default_rng(2024), 192)
    corners = np.array([[1, 1, 1], [-1, 1j, -1j], [0, 0, 0], [1j, -1, 0],
                        [-1j, 0, 1], [0.5, -1, -1], [-1, -1, -1], [0, 1, 0]])
    return np.vstack([W, corners]).astype(np.complex128)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_call_matches_row_by_row(name, p, stacked):
    pp = PoleParam(p)
    fn = CASES[name]
    batched = flat(fn(pp, ParamTriple(*stacked.T)))
    assert batched.shape[0] == len(stacked)
    for row, got in zip(stacked, batched):
        want = flat(fn(pp, ParamTriple(*map(complex, row))))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", CHECKED)
def test_stacked_call_checks_the_polydisk(name, stacked):
    W = stacked.copy()
    W[17, 1] = 1.01 * np.exp(0.4j)
    with pytest.raises(InvalidInput):
        CASES[name](PoleParam(0.5), ParamTriple(*W.T))
