"""Every chain, series, disk, slice and verdict function has one body for
scalars and arrays: a stacked call must give the row-by-row scalar answers."""

import inspect
import warnings

import numpy as np
import pytest

import hankelbody.series
from hankelbody import (CoeffTriple, ParamTriple, PoleParam, a_from_c,
                        a_from_phi, blaschke_psi, c_from_sigma, c_from_w,
                        dieudonne2_lhs, dieudonne2_rhs,
                        dieudonne_disk1, h_p, h_p_prime, hankel2,
                        hankel_from_c, hankel_from_sigma, membership_x2,
                        omega_contains, omega_map, phi_evaluator, phi_p,
                        phi_series_from_w, ratio_series,
                        rho_coeffs, series_derivative,
                        series_exp, series_integrate, series_mul,
                        series_reciprocal, sigma_from_w, tau_from_c,
                        tau_from_w, taylor_from_samples, w_from_sigma)
from hankelbody.errors import InvalidInput
from hankelbody.hankel import ACoeffs
from hankelbody.oracle import fprime_sampled
from hankelbody.search import sample_polydisk

#: evaluation points for the evaluator closures
ZS = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)


def trailing(t):
    """Parameters with a trailing axis, to meet an axis of points."""
    return ParamTriple(*(np.asarray(x)[..., None] for x in t))


def series(*xs):
    return np.stack(xs, axis=-1)


def jet(pp, t, shrink=0.9):
    """(z0, tau0, tau1, tau2) with |z0| = p and |tau0| <= shrink |z0|."""
    z0 = pp.p * np.exp(1j * np.angle(t.x1))
    return z0, shrink * z0 * t.x0, t.x1, t.x2


def disk1(pp, t, shrink=1.0):
    d = dieudonne_disk1(*jet(pp, t, shrink)[:2])
    return d.center, d.radius


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
    "taylor_from_samples": lambda pp, t: taylor_from_samples(
        blaschke_psi(pp, *trailing(t)), 0.2, 6),
    "series_mul": lambda pp, t: series_mul(series(*t), series(t.x2, t.x0, t.x1)),
    "series_reciprocal": lambda pp, t: series_reciprocal(series(2.0 + t.x0, t.x1, t.x2)),
    "ratio_series": lambda pp, t: ratio_series(np.stack(t, axis=-1),
                                               np.stack([2.0 + t.x0, t.x1, t.x2], axis=-1), 6),
    "series_exp": lambda pp, t: series_exp(series(0.0 * t.x0, t.x1, t.x2)),
    "series_integrate": lambda pp, t: series_integrate(series(*t)),
    "series_derivative": lambda pp, t: series_derivative(series(*t)),
    "a_from_phi": lambda pp, t: a_from_phi(pp, phi_series_from_w(pp, t, 9)),
    "fprime_sampled": lambda pp, t: fprime_sampled(pp, t, 64),
    "rho_coeffs": lambda pp, t: rho_coeffs(pp, t.x0, 6),
    "dieudonne_disk1": disk1,
    "dieudonne2_lhs": lambda pp, t: dieudonne2_lhs(*jet(pp, t)),
    "dieudonne2_rhs": lambda pp, t: dieudonne2_rhs(*jet(pp, t)[:2]),
    "h_p": lambda pp, t: h_p(pp, np.abs(t.x0)),
    "h_p_prime": lambda pp, t: h_p_prime(pp, np.abs(t.x0)),
}

def test_cases_name_every_series_function():
    """A new series function gets the scalar-versus-stacked check too."""
    public = {name for name, obj in vars(hankelbody.series).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and obj.__module__ == hankelbody.series.__name__}
    assert sorted(public - set(CASES) - {"as_complex", "as_real"}) == []


#: the functions that reject parameters outside the closed polydisk
CHECKED = ("c_from_w", "c_from_sigma", "sigma_from_w", "w_from_sigma", "tau_from_w")

#: the variability-disk predicates, which reject |tau0| > |z0|
JET_CHECKED = {
    "dieudonne_disk1": lambda pp, t: disk1(pp, t, shrink=1.01),
    "dieudonne2_lhs": lambda pp, t: dieudonne2_lhs(*jet(pp, t, shrink=1.01)),
    "dieudonne2_rhs": lambda pp, t: dieudonne2_rhs(*jet(pp, t, shrink=1.01)[:2]),
}


def flat(out):
    """A function's answer as one array, with any batch axis first."""
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


def membership(pp, *c):
    res = membership_x2(pp, CoeffTriple(*c))
    return res.decision, flat(res.params)


def no_numbers(verdict):
    return verdict, np.zeros(np.shape(verdict) + (0,))


def omega_points(pp, W):
    """Points of Omega_p moved by 0.3 w1; the corner (-i, 0, 1) is on its boundary."""
    return (omega_map(pp, W[:, 0]) + 0.3 * W[:, 1])[:, None]


#: the functions that answer with verdict strings, beside any numbers: each
#: has a map from the stacked triples to its input rows, and the function
VERDICT_CASES = {
    # attainable triples with c2 moved by 0.2 w2: inside, boundary and outside
    "membership_x2": (lambda pp, W: np.column_stack(c_from_w(pp, ParamTriple(*W.T)))
                      + [0.0, 0.0, 0.2] * W, membership),
    # against Omega_p
    "omega_contains": (omega_points, lambda pp, z: no_numbers(omega_contains(pp, z))),
}


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_stacked_verdicts_match_row_by_row(name, p, stacked):
    pp = PoleParam(p)
    rows_of, fn = VERDICT_CASES[name]
    rows = rows_of(pp, stacked)
    verdicts, numbers = fn(pp, *rows.T)
    assert set(verdicts) == {"inside", "boundary", "outside"}
    for row, verdict, got in zip(rows, verdicts, numbers):
        want_verdict, want = fn(pp, *map(complex, row))
        assert type(want_verdict) is str and want_verdict == verdict
        # an outside verdict has nan parameters in both calls
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", CHECKED)
def test_stacked_call_checks_the_polydisk(name, stacked):
    W = stacked.copy()
    W[17, 1] = 1.01 * np.exp(0.4j)
    with pytest.raises(InvalidInput):
        CASES[name](PoleParam(0.5), ParamTriple(*W.T))


@pytest.mark.parametrize("name", sorted(JET_CHECKED))
def test_stacked_call_checks_the_jet(name, stacked):
    W = stacked.copy()
    W[:, 0] = 0.5 * W[:, 0]
    JET_CHECKED[name](PoleParam(0.5), ParamTriple(*W.T))  # all inside
    W[17, 0] = 1.0
    with pytest.raises(InvalidInput):
        JET_CHECKED[name](PoleParam(0.5), ParamTriple(*W.T))


def test_scalar_calls_answer_with_python_numbers():
    pp = PoleParam(0.5)
    disk = dieudonne_disk1(0.5, 0.25j)
    assert type(disk.center) is complex and type(disk.radius) is float
    assert type(dieudonne2_lhs(0.5, 0.25, 1.0, 1.0)) is float
    assert type(dieudonne2_rhs(0.5, 0.25)) is float
    assert type(h_p(pp, 0.3)) is float and type(h_p_prime(pp, 0.3)) is float
    assert rho_coeffs(pp, 0.5j, 6).shape == (6,)
    res = membership_x2(pp, c_from_w(pp, ParamTriple(0.3, 0.2j, 0.1)))
    assert type(res.decision) is str and all(type(x) is complex for x in res.params)
    assert type(omega_contains(pp, 0.1j)) is str


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_verdict_edge_cases_neither_raise_nor_warn(p):
    pp = PoleParam(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # w0 = +-1 exactly: the chain stops at its first step
        for w0 in (1.0, -1.0):
            res = membership_x2(pp, c_from_w(pp, ParamTriple(w0, 0.5, 0.5)))
            assert res.decision == "boundary" and res.params[1:] == (0.0, 0.0)
            assert abs(res.params.x0 - w0) < 1e-12
        # c0 = 1/p puts the pole of the jet map at the coefficient
        res = membership_x2(pp, CoeffTriple(1.0 / p, 0.3, 0.1))
        assert res.decision == "outside" and np.all(np.isnan(res.params))
        stacked = membership_x2(pp, CoeffTriple(np.array([1.0 / p, 0.0]), 0.3, 0.1))
        assert stacked.decision[0] == "outside" and np.all(np.isnan(np.array(stacked.params)[:, 0]))
        # coefficients that are not finite, or so large that omega's series
        # overflows
        for c in ((np.nan, 0.0, 0.0), (0.1, np.inf, 0.0), (1e200, 1e200j, -1e200)):
            assert membership_x2(pp, CoeffTriple(*c)).decision == "outside"
