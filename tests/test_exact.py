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

from conftest import PHI_FUNCTIONS, literal_mutants, paper_B

sp = pytest.importorskip("sympy")

P, p = sp.symbols("P p", positive=True)
t, y, r, u, x0, y0, x1, y1, theta = sp.symbols("t y r u x0 y0 x1 y1 theta", real=True)
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


# --- M(p) is the maximum of the real slice (README, "The extremal modulus") --

def sign_factors():
    """(a, d, e, f) = (P^2 - 1, P^2 - 2, 2P^4 - 7P^2 + 1, 3P^2 - 2), the
    factors of the sign forms of Phi's sigma0 terms."""
    return P**2 - 1, P**2 - 2, 2 * P**4 - 7 * P**2 + 1, 3 * P**2 - 2


def sigma0_terms(s0, rho2):
    """(T0, T1, T2, C) of the kernel's Phi at sigma0 = ``s0`` with |s0|^2 =
    ``rho2``, read off Phi itself: Phi(s0, 0, 0) = T0, Phi(s0, +-1, 0) =
    T0 +- T1 + T2 and Phi(s0, 1/2, 1) - Phi(s0, 1/2, 0) = 3C/4, so that every
    literal of the transcription is read.  Each is asserted to be its sign
    form (step 2): T0 = -18P(1 + d s0 + s0^2), T1 = 3(e + f s0 + s0^2) m0,
    T2 = -P(2 + rho^2 + 3a conj(s0)) m0 and C = 3P(a + s0) m0, m0 = 1 - rho^2."""
    a, d, e, f = sign_factors()
    m0 = 1 - rho2
    forms = (-18 * P * (1 + d * s0 + s0**2), 3 * (e + f * s0 + s0**2) * m0,
             -P * (2 + rho2 + 3 * a * sp.conjugate(s0)) * m0, 3 * P * (a + s0) * m0)
    half = sp.Rational(1, 2)
    T0, plus, minus = phi(s0, 0, 0), phi(s0, 1, 0), phi(s0, -1, 0)
    terms = tuple(map(exact, (T0, (plus - minus) / 2, (plus + minus) / 2 - T0,
                              (phi(s0, half, 1) - phi(s0, half, 0)) * sp.Rational(4, 3))))
    assert all(sp.expand(term - form) == 0 for term, form in zip(terms, forms))
    return terms


def slope_terms():
    """(B0, b1, b2, b3) at y = |sigma0| in [0, 1]: B0 = -T0(y) and the
    quotients b1, b2, b3 of B1 = T1(y), B2 = -T2(y) and B3 = C(y) by 1 - y^2,
    asserted exact."""
    T0, *rest = sigma0_terms(y, y**2)
    quotients = [sp.div(B, 1 - y**2, y) for B in (rest[0], -rest[1], rest[2])]
    assert all(rem == 0 for _, rem in quotients)
    return (-T0, *(q for q, _ in quotients))


def majorant(B, r):
    """Q = B0 + B1 r + B2 r^2 + B3 (1 - r^2), the bound on |Phi| of steps 1-2."""
    return B[0] + B[1] * r + B[2] * r**2 + B[3] * (1 - r**2)


def test_phi_is_its_sigma0_terms_in_sign_form():
    # steps 1-2: Phi = T0 + T1 s1 + T2 s1^2 + C (1 - |s1|^2) s2, and on
    # |sigma0| = rho each T_k is a constant times a polynomial in sigma0 and
    # conj(sigma0) whose coefficients share one sign, so |T_k| <= |T_k(rho)|
    s0, s1 = x0 + sp.I * y0, x1 + sp.I * y1
    T0, T1, T2, C = sigma0_terms(s0, x0**2 + y0**2)
    assert exact(phi(s0, s1, s2) - (T0 + T1 * s1 + T2 * s1**2 + C * (1 - x1**2 - y1**2) * s2)) == 0


def test_sign_factors_are_positive_for_p_in_0_1():
    # P - 2 = (1 - p)^2 / p > 0, and at P = 2 + u each of a, d, e, f has
    # positive coefficients only: e = 5 + 36u + 41u^2 + 16u^3 + 2u^4
    sigma0_terms(y, y**2)
    assert sp.cancel(p + 1 / p - 2 - (1 - p) ** 2 / p) == 0
    a, d, e, f = (sp.Poly(factor.subs(P, 2 + u), u) for factor in sign_factors())
    assert e.all_coeffs() == [2, 16, 41, 36, 5]
    assert all(c > 0 for factor in (a, d, e, f) for c in factor.all_coeffs())


def test_majorant_on_the_unit_sigma1_circle_is_18P3_hp():
    # step 3: B_k = |T_k(y)| by the signs at real y, and Q(y, 1) = 18 P^3 h_p(y)
    B0, b1, b2, _ = slope_terms()
    hp = sum(exact(c) * y**k for k, c in enumerate(hp_numerator_coeffs(P)))
    assert sp.expand(B0 + (1 - y**2) * (b1 + b2) - hp) == 0


def test_majorant_falls_to_its_unit_sigma1_value():
    # step 4: Q(y, r) - Q(y, 1) = (1 - r)[(1 + r)(B3 - B2) - B1], so
    # Q(y, r) <= Q(y, 1) unless (1 + r)(B3 - B2) > B1
    B0, *b = slope_terms()
    B = (B0, *((1 - y**2) * bk for bk in b))
    drop = (1 - r) * ((1 + r) * (B[3] - B[2]) - B[1])
    assert sp.expand(majorant(B, r) - majorant(B, 1) - drop) == 0


def test_majorant_minus_18P3_has_the_factor_1_minus_y():
    # step 5: Q(y, r) - 18 P^3 = -(1 - y) F, F = 18P(a + y) - (1 + y) q(r),
    # q(r) = b1 r + b2 r^2 + b3 (1 - r^2)
    B0, b1, b2, b3 = slope_terms()
    a = sign_factors()[0]
    q = b1 * r + b2 * r**2 + b3 * (1 - r**2)
    F = 18 * P * (a + y) - (1 + y) * q
    assert sp.expand(majorant((B0, *((1 - y**2) * bk for bk in (b1, b2, b3))), r)
                     - 18 * P**3 + (1 - y) * F) == 0


def test_the_chain_of_step_5():
    # where (1 + r)(b3 - b2) >= b1: q(r) <= b3 + r (b3 - b2) <= 2 b3, as
    # b2 > 0; so F >= 18P(a + y) - 2(1 + y) b3 = 6P(a + y)(2 - y) > 0
    _, b1, b2, b3 = slope_terms()
    a = sign_factors()[0]
    gap = b3 + r * (b3 - b2) - (b1 * r + b2 * r**2 + b3 * (1 - r**2))
    assert sp.expand(gap - r * ((1 + r) * (b3 - b2) - b1)) == 0
    assert sp.expand(18 * P * (a + y) - (1 + y) * 2 * b3 - 6 * P * (a + y) * (2 - y)) == 0
    # b1, b2, b3 > 0 on y in [0, 1]: positive coefficients in (u, y) at P = 2 + u
    for bk in (b1, b2, b3):
        assert all(c > 0 for c in sp.Poly(bk.subs(P, 2 + u), u, y).coeffs())


#: the identities of the proof that M(p) is the slice maximum
PROOF_TESTS = (test_phi_is_its_sigma0_terms_in_sign_form, test_sign_factors_are_positive_for_p_in_0_1,
               test_majorant_on_the_unit_sigma1_circle_is_18P3_hp,
               test_majorant_falls_to_its_unit_sigma1_value,
               test_majorant_minus_18P3_has_the_factor_1_minus_y, test_the_chain_of_step_5)


def test_every_proof_test_fails_under_every_phi_literal_mutant(monkeypatch):
    # each step is proved on the kernel's own Phi, so a Phi literal raised
    # by 1e-3 (acceptance criterion 9) must fail every one of them
    passed, n_phi = [], 0
    for label, bad in literal_mutants(*PHI_FUNCTIONS):
        n_phi += 1
        monkeypatch.setattr(kernels, bad.__name__, bad)
        for proof in PROOF_TESTS:
            try:
                proof()
            except AssertionError:
                continue
            passed.append((label, proof.__name__))
        monkeypatch.undo()
    assert n_phi == 18 and not passed
