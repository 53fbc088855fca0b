"""Closed-form functionals: coefficient map, Hankel determinant, the
polydisk functional Phi_p, the one-parameter extremal family, and the
bound polynomials used in the sandwich estimate for M(p).

Transcribed polynomial displays live in module-level tables so the test
suite can perturb a single coefficient and confirm the defining identities
catch the drift.  Phi_p itself is transcribed once, in ``kernels``.

Like the chain functions of ``coeffbody``, the coefficient map, the three
forms of H and ``phi_p`` take scalar triples or triples of equal-shape
arrays and answer in kind; so do ``h_p`` and ``h_p_prime`` in t (a scalar t
gives a Python float).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .coeffbody import CoeffTriple, ParamTriple
from .disk import DiskRegion, PoleParam
from .errors import InvalidInput
from .series import as_complex, as_real


class ACoeffs(NamedTuple):
    a2: complex
    a3: complex
    a4: complex


def a_from_c(pp: PoleParam, c: CoeffTriple) -> ACoeffs:
    """Map (c0,c1,c2) of the self-map to (a2,a3,a4) of the reconstructed function."""
    P = pp.P
    c0, c1, c2 = c
    a2 = P - c0
    a3 = P * P + (-c1 + c0 * c0 - 4 * P * c0 - 2.0) / 3.0
    a4 = P**3 + (
        -c2 + c0 * c1 + 6 * c0 - 9 * P - 9 * P * P * c0 + 3 * P * c0 * c0 - 3 * P * c1
    ) / 6.0
    return ACoeffs(as_complex(a2), as_complex(a3), as_complex(a4))


def hankel2(a: ACoeffs) -> complex:
    """Second Hankel determinant a2*a4 - a3^2."""
    return as_complex(a.a2 * a.a4 - a.a3 * a.a3)


def hankel_from_c(pp: PoleParam, c: CoeffTriple) -> complex:
    """H expressed directly in the c-coefficients (times 18, then divided back)."""
    P = pp.P
    c0, c1, c2 = c
    h18 = (
        3 * (c0 - P) * c2
        - 2 * c1 * c1
        + (c0 * c0 - 4 * P * c0 + 3 * P * P - 8.0) * c1
        - (c0 * c0 - P * c0 + 1.0) * (2 * c0 * c0 - 5 * P * c0 + 3 * P * P + 8.0)
    )
    return as_complex(h18 / 18.0)


# --- the polydisk functional -------------------------------------------------

def phi_p(pp: PoleParam, sigma: ParamTriple) -> complex:
    """Phi_p(sigma0, sigma1, sigma2); H = phi_p / (18 P^3) on the polydisk."""
    s0, s1, s2 = sigma
    head, coef = kernels._phi_terms(pp.P, s0, s1)
    return as_complex(head + coef * s2)


def hankel_from_sigma(pp: PoleParam, sigma: ParamTriple) -> complex:
    return phi_p(pp, sigma) / (18.0 * pp.P**3)


# --- the one-parameter extremal family ---------------------------------------

def A_n(pp: PoleParam, zeta: complex, n: int):
    """Coefficient a_n of the rotation-family extremal function."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    p = pp.p
    return (1.0 - p ** (2 * n) * zeta) / (p ** (n - 1) * (1.0 - p * p * zeta))


def koebe(z):
    return z / (1.0 - z) ** 2


def H_F(pp: PoleParam, zeta):
    """Closed-form Hankel determinant of the rotation family: a Koebe pullback."""
    p = pp.p
    return -((1.0 - p * p) ** 2 / (p * p)) * koebe(p * p * zeta)


def aw_disk(pp: PoleParam, n: int) -> DiskRegion:
    """The exact coefficient disk for a_n over the whole class (n >= 2)."""
    if n < 2:
        raise InvalidInput("n must be >= 2")
    p = pp.p
    denom = p ** (n - 1) * (1.0 - p**4)
    center = (1.0 - p ** (2 * n + 2)) / denom
    radius = (p * p - p ** (2 * n)) / denom
    return DiskRegion(complex(center), float(radius))


def omega_map(pp: PoleParam, z):
    """-(1/P^2) [1 + (P^2-2) z + z^2]; the image of the closed disk is Omega_p."""
    t = pp.P**2
    return -(1.0 + (t - 2.0) * z + z * z) / t


# --- bound polynomials for M(p) ----------------------------------------------

def hp_numerator_coeffs(P: float) -> np.ndarray:
    """Coefficients (t^0..t^4, ascending) of 18 P^3 h_p(t)."""
    return np.array(
        [
            6.0 * P**4 - 21.0 * P**2 + 20.0 * P + 3.0,
            3.0 * (7.0 * P**3 + 3.0 * P**2 - 13.0 * P - 2.0),
            -(6.0 * P**4 - 21.0 * P**2 - 17.0 * P),
            -(3.0 * P**3 + 9.0 * P**2 - 3.0 * P - 6.0),
            -(P + 3.0),
        ]
    )


def h_p(pp: PoleParam, t):
    """The quartic slice -Phi_p(t,-1,0)/(18 P^3) for t in [0,1]."""
    P = pp.P
    c = hp_numerator_coeffs(P)
    return as_real(np.polynomial.polynomial.polyval(t, c) / (18.0 * P**3))


def h_p_prime(pp: PoleParam, t):
    """Derivative of h_p; at t=1 equals -2(P-2)(P+1)/(3P)."""
    P = pp.P
    dc = np.polynomial.polynomial.polyder(hp_numerator_coeffs(P))
    return as_real(np.polynomial.polynomial.polyval(t, dc) / (18.0 * P**3))


#: ascending coefficients of g(x), x^1 .. x^7
G_POLY_COEFFS = (
    -7.0 / 48.0,
    143.0 / 72.0,
    -121.0 / 128.0,
    -427.0 / 1152.0,
    343.0 / 384.0,
    5831.0 / 4608.0,
    -2401.0 / 1536.0,
)


def g_poly(x: float) -> float:
    """The degree-7 correction polynomial in the lower-bound identity."""
    return float(np.polynomial.polynomial.polyval(x, (0.0, *G_POLY_COEFFS)))


def lower_bound_M(pp: PoleParam) -> float:
    """h_p evaluated at t = 7/(4P); equals 1/(3p) + p/3 + g(1/P)."""
    return h_p(pp, 7.0 / (4.0 * pp.P))


def upper_bound_M(pp: PoleParam) -> float:
    """(P^2 + 2P - 2)/(3P), the proven upper bound for M(p)."""
    P = pp.P
    return (P * P + 2.0 * P - 2.0) / (3.0 * P)


def B_coeffs(pp: PoleParam, y: float):
    """The four bound terms (B0..B3) at y = |sigma0| in [0,1]."""
    if not 0.0 <= y <= 1.0:
        raise InvalidInput("y must lie in [0,1]")
    P = pp.P
    my = 1.0 - y * y
    B0 = 18.0 * P * (1.0 + (P * P - 2.0) * y + y * y)
    B1 = 3.0 * (1.0 - 7.0 * P * P + 2.0 * P**4 + (3.0 * P * P - 2.0) * y + y * y) * my
    B2 = P * (2.0 * my + 3.0 * y * (P * P - 1.0 + y)) * my
    B3 = 3.0 * P * (P * P - 1.0 + y) * my
    return B0, B1, B2, B3


def G_p(pp: PoleParam, t: float) -> float:
    """Cubic majorant of B0+B1+B3 at t = 1-|sigma0|; maximal at t=0."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInput("t must lie in [0,1]")
    P = pp.P
    return (
        6.0 * (P**4 + 2.0 * P**3 - 2.0 * P**2)
        + 3.0 * (-3.0 * P**3 - 6.0 * P**2 + 4.0 * P + 1.0) * t * t
        + 3.0 * P * (3.0 * P + 1.0) * t**3
    )
