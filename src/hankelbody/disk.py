"""Unit-disk Moebius geometry and the variability disks for self-maps.

Covers the pseudo-hyperbolic quotient [z,w], the involution T_a, the
rotation conjugates fixing an interior point p, the first- and second-order
variability disks for derivatives of self-maps with two interpolation
conditions, and the three-parameter Blaschke-type construction that
realizes every admissible second-order jet.

``blaschke_psi`` evaluates the Blaschke construction pointwise through
the nested Moebius chain; ``coeffbody.phi_series_from_w`` builds the same
inner map omega by Schur's recursion and expands phi algebraically.

The Moebius maps, ``rho_coeffs``, the variability-disk predicates and the
Blaschke construction take scalars or equal-shape arrays and answer in
kind (a scalar in gives a Python number out); their ``InvalidInput``
checks fail if any element is out of range.  ``PoleParam`` holds the one
range rule for p, which the command line applies through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateDenominator, InvalidInput
from .series import as_complex, as_real

DENOM_EPS = 1e-14
#: smallest accepted pole location: powers such as P**4 = (p + 1/p)**4 overflow
#: a float below p ~ 1e-77, and every output is still finite at 1e-70
P_MIN = 1e-60


@dataclass(frozen=True)
class DiskRegion:
    """Closed disk |z - center| <= radius (or a stack of them, as arrays)."""

    center: complex
    radius: float

    def __post_init__(self):
        if np.any(self.radius < 0):
            raise InvalidInput("disk radius must be >= 0")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius + 1e-12


@dataclass(frozen=True)
class PoleParam:
    """The pole location p in [P_MIN, 1) together with P = p + 1/p."""

    p: float

    def __post_init__(self):
        if not P_MIN <= self.p < 1.0:
            raise InvalidInput(f"p must lie in [{P_MIN:g}, 1), got {self.p}")

    @property
    def P(self) -> float:
        return self.p + 1.0 / self.p


def _mobius_denominator(a, z):
    """1 - conj(a) z, after checking that no element of it vanishes."""
    denom = 1.0 - np.conj(a) * z
    if np.any(np.abs(denom) <= DENOM_EPS):
        raise DegenerateDenominator("1 - conj(a) z vanished")
    return denom


def pseudo_hyperbolic(z, w):
    """[z,w] = (z - w) / (1 - conj(w) z); works elementwise on arrays."""
    return (z - w) / _mobius_denominator(w, z)


def mobius_T(a, z):
    """The involution T_a(z) = (a - z)/(1 - conj(a) z) swapping 0 and a."""
    return (a - z) / _mobius_denominator(a, z)


def rho_eval(pp: PoleParam, zeta, z):
    """The rotation conjugate T_p(zeta * T_p(z)) in explicit Moebius form."""
    p = pp.p
    return (((zeta - p * p) * z + (1 - zeta) * p)
            / (-(1 - zeta) * p * z + 1 - p * p * zeta))


def rho_coeffs(pp: PoleParam, zeta, n_terms: int) -> np.ndarray:
    """Closed-form Taylor coefficients of the rotation conjugate about 0.

    alpha_0 = (1 - zeta) p / (1 - p^2 zeta) and for k >= 1
    alpha_k = zeta (1-p^2)^2 (1-zeta)^(k-1) p^(k-1) / (1 - p^2 zeta)^(k+1).
    An array of zetas gives a stack of coefficient rows, the coefficient
    axis last.
    """
    if n_terms < 1:
        raise InvalidInput("n_terms must be >= 1")
    p = pp.p
    zeta = np.asarray(zeta, dtype=np.complex128)[..., None]
    d = 1.0 - p * p * zeta
    k = np.arange(1, n_terms)
    tail = zeta * (1 - p * p) ** 2 * (1 - zeta) ** (k - 1) * p ** (k - 1) / d ** (k + 1)
    return np.concatenate([(1.0 - zeta) * p / d, tail], axis=-1)


def _jet_moduli(z0, tau0, slack: float):
    """(|z0|, |tau0|) after checking 0 < |z0| < 1 and |tau0| < |z0| + slack."""
    az0, at0 = abs(z0), abs(tau0)
    if np.any((az0 <= 0) | (az0 >= 1)):
        raise InvalidInput("need 0 < |z0| < 1")
    if np.any(at0 >= az0 + slack):
        raise InvalidInput(f"need |tau0| {'<=' if slack else '<'} |z0|")
    return az0, at0


def dieudonne_disk1(z0, tau0) -> DiskRegion:
    """First-order variability disk for psi'(z0) given psi(0)=0, psi(z0)=tau0."""
    az0, at0 = _jet_moduli(z0, tau0, 1e-15)
    radius = (az0**2 - at0**2) / (az0 * (1 - az0**2))
    return DiskRegion(as_complex(tau0 / z0), as_real(np.maximum(radius, 0.0)))


def dieudonne2_lhs(z0, tau0, tau1, tau2):
    """Left side of the second-order variability inequality at (z0, tau0, tau1)."""
    az0, at0 = _jet_moduli(z0, tau0, 0.0)
    s = tau1 - tau0 / z0
    gap = az0**2 - at0**2
    main = tau2 - s / (z0 * (1 - az0**2)) + np.conj(tau0) * s * s / gap
    return as_real(abs(main) + az0 * abs(s) ** 2 / gap)


def dieudonne2_rhs(z0, tau0):
    """Right side (disk radius bound) of the second-order inequality."""
    az0, at0 = _jet_moduli(z0, tau0, 0.0)
    return as_real(az0 * (1 - (at0 / az0) ** 2) / (1 - az0**2) ** 2)


def blaschke_psi(pp: PoleParam, w0: complex, w1: complex, w2: complex) -> Callable:
    """Self-map psi with psi(0) = 0 realizing the jet parametrized by (w0,w1,w2).

    psi(z) = z * omega([z, p]) with omega(u) = [u [w2 u, -w1], -w0].
    Satisfies psi(p) = p*w0; with |w_i| <= 1 it maps the closed disk into itself.
    The parameters may be arrays; they broadcast against z by numpy rules.
    """
    p = pp.p

    def psi(z):
        u = pseudo_hyperbolic(z, p)
        inner = (w2 * u + w1) / (1.0 + np.conj(w1) * w2 * u)
        omega = (u * inner + w0) / (1.0 + np.conj(w0) * u * inner)
        return z * omega

    return psi

