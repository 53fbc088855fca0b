"""Exact identities behind Phi_p, the coefficient map and the rotation
family, proved with sympy on the package's own transcription.  Phi's float
literals are all integers, so evaluating it on symbols is exact once each
literal is read as the rational it holds; the coefficient map divides by
3.0, 6.0 and 18.0, so its floats are read as the nearest fractions with
small denominators."""

from types import SimpleNamespace

import pytest

from hankelbody import hankel, kernels
from hankelbody.hankel import (G_POLY_COEFFS, H_F, A_n, ACoeffs, a_from_c, hankel2,
                               hankel_from_c, hp_numerator_coeffs, omega_map)

from conftest import paper_B

sp = pytest.importorskip("sympy")

P, p = sp.symbols("P p", positive=True)
t, y, x0, y0, x1, y1, theta = sp.symbols("t y x0 y0 x1 y1 theta", real=True)
s2 = sp.Symbol("s2")


def exact(expr):
    """``expr`` expanded, each float in it read as the exact rational it holds."""
    expr = sp.sympify(expr)
    return sp.expand(expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)}))


def rational(expr):
    """``expr`` expanded, each float in it read as the nearest fraction with a
    denominator of at most 10**6: the float of 1/3 is not 1/3."""
    expr = sp.sympify(expr)
    return sp.expand(expr.xreplace(
        {f: sp.Rational(f).limit_denominator(10**6) for f in expr.atoms(sp.Float)}))


@pytest.fixture
def symbolic(monkeypatch):
    """``hankel``'s functions with their results left as sympy expressions."""
    monkeypatch.setattr(hankel, "as_complex", lambda z: z)


def phi(s0, s1, s2):
    """Phi_p from the kernel, at symbolic P."""
    head, coef = kernels._phi_terms(P, s0, s1)
    return head + coef * s2


def test_phi_is_18P3_times_H_of_the_chain():
    s0, s1 = x0 + sp.I * y0, x1 + sp.I * y1
    m0, m1 = 1 - x0**2 - y0**2, 1 - x1**2 - y1**2
    # c_from_sigma, then a_from_c
    bracket = 1 + (P**2 - 2) * s0 + s0**2
    c0 = (1 - s0) / P
    c1 = bracket / P**2 + m0 * s1 / P
    c2 = ((1 - s0) * bracket / P**3 - (P**2 - 2 + 2 * s0) * m0 * s1 / P**2
          + m0 * sp.conjugate(s0) * s1**2 / P - m0 * m1 * s2 / P)
    a2 = P - c0
    a3 = P**2 + sp.Rational(1, 3) * (-c1 + c0**2 - 4 * P * c0 - 2)
    a4 = P**3 + sp.Rational(1, 6) * (-c2 + c0 * c1 + 6 * c0 - 9 * P - 9 * P**2 * c0
                                     + 3 * P * c0**2 - 3 * P * c1)
    assert exact(18 * P**3 * (a2 * a4 - a3**2) - phi(s0, s1, s2)) == 0


def test_hp_numerator_is_minus_phi_on_the_real_slice():
    want = sp.Poly(exact(-phi(t, -1, 0)), t).all_coeffs()[::-1]
    got = [exact(c) for c in hp_numerator_coeffs(P)]
    assert len(got) == len(want) and all(sp.expand(g - w) == 0 for g, w in zip(got, want))


def test_hp_at_7_over_4P_is_P_over_3_plus_g():
    h = sum(exact(c) * t**k for k, c in enumerate(hp_numerator_coeffs(P))) / (18 * P**3)
    g = sum(sp.Rational(v).limit_denominator(10**5) / P**k
            for k, v in enumerate(G_POLY_COEFFS, start=1))
    assert sp.cancel(h.subs(t, 7 / (4 * P)) - P / 3 - g) == 0


def test_sigma0_terms_at_real_sigma0_are_the_paper_bound_terms():
    T0, T1, T2, C = kernels.phi_sigma0_terms(P, y)
    for term, B in zip((-T0, T1, -T2, C), paper_B(P, y)):
        assert exact(term - B) == 0


def test_omega_map_is_the_sigma0_slice_of_phi():
    s0 = x0 + sp.I * y0
    assert exact(18 * P**3 * omega_map(SimpleNamespace(P=P), s0) - phi(s0, 0, 0)) == 0


def test_omega_map_on_the_circle_is_the_limacon():
    z = sp.exp(sp.I * theta)
    want = -z * (1 - 4 / P**2 * sp.sin(theta / 2) ** 2)
    diff = exact(omega_map(SimpleNamespace(P=P), z)) - want
    assert sp.simplify(sp.expand(diff.rewrite(sp.exp))) == 0


def test_s_rises_with_p_below_one():
    # s read off omega_map(z) = -z - s (1 - z)^2 / 4 at P = p + 1/p
    z = sp.Symbol("z")
    s = sp.cancel(exact(-4 * (omega_map(SimpleNamespace(P=p + 1 / p), z) + z) / (1 - z) ** 2))
    assert sp.cancel(s - 4 * p**2 / (1 + p**2) ** 2) == 0
    # ds/dp has the sign of 1 - p^2, so Omega_p shrinks as p rises in (0, 1)
    positive = 8 * p / (1 + p**2) ** 3
    assert positive.is_positive and sp.cancel(sp.diff(s, p) - positive * (1 - p**2)) == 0
    # and s = 2/3, where the limacon stops being convex, at p = sqrt(2 - sqrt 3)
    assert sp.simplify(s.subs(p, sp.sqrt(2 - sp.sqrt(3))) - sp.Rational(2, 3)) == 0


def test_hankel_from_c_is_hankel2_of_a_from_c(symbolic):
    # eq:H, H written directly in (c0, c1, c2)
    c = sp.symbols("c0 c1 c2")
    pp = SimpleNamespace(P=P)
    assert rational(hankel_from_c(pp, c) - hankel2(a_from_c(pp, c))) == 0


def test_rotation_family_hankel_is_H_F(symbolic):
    zeta = sp.Symbol("zeta")
    pp = SimpleNamespace(p=p)
    a = ACoeffs(*(A_n(pp, zeta, n) for n in (2, 3, 4)))
    assert sp.cancel(rational(hankel2(a) - H_F(pp, zeta))) == 0


def test_hp_anchors_at_one():
    h = sum(exact(c) * t**k for k, c in enumerate(hp_numerator_coeffs(P))) / (18 * P**3)
    assert sp.cancel(h.subs(t, 1) - 1) == 0
    assert sp.cancel(sp.diff(h, t).subs(t, 1) + 2 * (P - 2) * (P + 1) / (3 * P)) == 0
