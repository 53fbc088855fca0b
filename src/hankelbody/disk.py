"""Unit-disk Moebius geometry and the variability disks for self-maps.

Covers the pseudo-hyperbolic quotient [z,w], the involution T_a, the
rotation conjugates fixing an interior point p, the first- and second-order
variability disks for derivatives of self-maps with two interpolation
conditions, and the three-parameter Blaschke-type construction that
realizes every admissible second-order jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateDenominator, InvalidInput
from .series import TruncatedSeries

DENOM_EPS = 1e-14


@dataclass(frozen=True)
class DiskRegion:
    """Closed disk |z - center| <= radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidInput("disk radius must be >= 0")

    def contains(self, z: complex, tol: float = 1e-12) -> bool:
        return abs(z - self.center) <= self.radius + tol


@dataclass(frozen=True)
class PoleParam:
    """The pole location p in (0,1) together with P = p + 1/p."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidInput(f"p must lie in (0,1), got {self.p}")

    @property
    def P(self) -> float:
        return self.p + 1.0 / self.p


def pseudo_hyperbolic(z, w):
    """[z,w] = (z - w) / (1 - conj(w) z); works elementwise on arrays."""
    denom = 1.0 - np.conj(w) * z
    if np.min(np.abs(denom)) <= DENOM_EPS:
        raise DegenerateDenominator("1 - conj(w) z vanished")
    return (z - w) / denom


def mobius_T(a, z):
    """The involution T_a(z) = (a - z)/(1 - conj(a) z) swapping 0 and a."""
    denom = 1.0 - np.conj(a) * z
    if np.min(np.abs(denom)) <= DENOM_EPS:
        raise DegenerateDenominator("1 - conj(a) z vanished")
    return (a - z) / denom


def rho_eval(pp: PoleParam, zeta, z):
    """The rotation conjugate T_p(zeta * T_p(z)) in explicit Moebius form."""
    p = pp.p
    return (((zeta - p * p) * z + (1 - zeta) * p)
            / (-(1 - zeta) * p * z + 1 - p * p * zeta))


def rho_coeffs(pp: PoleParam, zeta: complex, n_terms: int) -> TruncatedSeries:
    """Closed-form Taylor coefficients of the rotation conjugate about 0.

    alpha_0 = (1 - zeta) p / (1 - p^2 zeta) and for k >= 1
    alpha_k = zeta (1-p^2)^2 (1-zeta)^(k-1) p^(k-1) / (1 - p^2 zeta)^(k+1).
    """
    p = pp.p
    d = 1.0 - p * p * zeta
    coeffs = np.zeros(n_terms, dtype=np.complex128)
    coeffs[0] = (1.0 - zeta) * p / d
    for k in range(1, n_terms):
        coeffs[k] = zeta * (1 - p * p) ** 2 * (1 - zeta) ** (k - 1) * p ** (k - 1) / d ** (k + 1)
    return TruncatedSeries(coeffs)


def dieudonne_disk1(z0: complex, tau0: complex) -> DiskRegion:
    """First-order variability disk for psi'(z0) given psi(0)=0, psi(z0)=tau0."""
    az0 = abs(z0)
    if not 0 < az0 < 1:
        raise InvalidInput("need 0 < |z0| < 1")
    if abs(tau0) > az0 + 1e-15:
        raise InvalidInput("need |tau0| <= |z0|")
    center = tau0 / z0
    radius = (az0**2 - abs(tau0) ** 2) / (az0 * (1 - az0**2))
    return DiskRegion(complex(center), max(float(radius), 0.0))


def dieudonne2_lhs(z0: complex, tau0: complex, tau1: complex, tau2: complex) -> float:
    """Left side of the second-order variability inequality at (z0, tau0, tau1)."""
    az0 = abs(z0)
    if not 0 < az0 < 1:
        raise InvalidInput("need 0 < |z0| < 1")
    if abs(tau0) >= az0:
        raise InvalidInput("need |tau0| < |z0|")
    s = tau1 - tau0 / z0
    gap = az0**2 - abs(tau0) ** 2
    main = tau2 - s / (z0 * (1 - az0**2)) + np.conj(tau0) * s * s / gap
    return float(abs(main) + az0 * abs(s) ** 2 / gap)


def dieudonne2_rhs(z0: complex, tau0: complex) -> float:
    """Right side (disk radius bound) of the second-order inequality."""
    az0 = abs(z0)
    if not 0 < az0 < 1:
        raise InvalidInput("need 0 < |z0| < 1")
    if abs(tau0) >= az0:
        raise InvalidInput("need |tau0| < |z0|")
    return float(az0 * (1 - (abs(tau0) / az0) ** 2) / (1 - az0**2) ** 2)


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


def derivatives_at(f: Callable, z0: complex, n: int, radius: float = 0.05,
                   n_samples: int = 128) -> np.ndarray:
    """Local Taylor coefficients f(z0), f'(z0), f''(z0)/2, ... via Cauchy sampling.

    ``f`` must be analytic on |z - z0| <= radius.  Returns n+1 coefficients,
    behind any leading batch axes that ``f`` puts in front of the sample axis.
    """
    j = np.arange(n_samples)
    zs = z0 + radius * np.exp(2j * np.pi * j / n_samples)
    vals = np.asarray(f(zs), dtype=np.complex128)
    spectrum = np.fft.fft(vals)
    ks = np.arange(n + 1)
    return spectrum[..., : n + 1] / (n_samples * radius**ks)
