"""Order-2 coefficient body of disk self-maps fixing an interior point p.

Two equivalent three-parameter chains describe the body: the w-chain built
directly from the Blaschke construction, and the sigma-chain obtained from
it by a Moebius change of variables in the first parameter.  Membership
testing inverts the w-chain step by step, so an inside verdict also
recovers the generating parameters.

Sign conventions follow the constructive chain (psi(z) = z*omega([z,p]))
throughout; both closed-form chains below agree with the Taylor
coefficients of the constructed maps to machine precision, which is
enforced by the test suite.

Every chain function takes either a triple of scalars or a triple of
equal-shape arrays (a stack of parameter points, e.g. ``ParamTriple(*W.T)``
for an (n, 3) array W) and answers in kind; so does ``membership_x2`` for a
triple of coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disk import PoleParam, blaschke_psi, mobius_T
from .errors import InvalidInput
from .series import TruncatedSeries, as_complex, taylor_from_samples

#: modulus within this distance of 1 counts as a boundary parameter
BOUNDARY_TOL = 1e-9


class ParamTriple(NamedTuple):
    """Three parameters in the closed unit polydisk (scalars or equal-shape arrays)."""

    x0: complex
    x1: complex
    x2: complex

    def in_closed_polydisk(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self) <= 1.0 + tol))


class CoeffTriple(NamedTuple):
    """First three Taylor coefficients (c0, c1, c2) of a self-map about 0 (or stacks of them)."""

    c0: complex
    c1: complex
    c2: complex


@dataclass(frozen=True)
class MembershipResult:
    decision: str | np.ndarray  # "inside" | "boundary" | "outside", or an array of them
    params: ParamTriple  # nan where the decision is "outside"


def _check_polydisk(w: ParamTriple):
    if not w.in_closed_polydisk(1e-10):
        raise InvalidInput(f"parameters must lie in the closed polydisk: {w}")


def c_from_w(pp: PoleParam, w: ParamTriple) -> CoeffTriple:
    """Closed-form (c0, c1, c2) of the self-map generated by the w-chain."""
    _check_polydisk(w)
    p = pp.p
    w0, w1, w2 = w
    q = 1.0 - p * p
    d = 1.0 - p * p * w0
    m0 = 1.0 - abs(w0) ** 2
    m1 = 1.0 - abs(w1) ** 2
    c0 = p * (1.0 - w0) / d
    c1 = (q * q * w0 + p * q * m0 * w1) / (d * d)
    c2 = (q / d**3) * (
        p * q * (1.0 - w0) * w0
        - q * (1.0 + p * p * w0) * m0 * w1
        + p * (np.conj(w0) - p * p) * m0 * w1 * w1
        - p * d * m0 * m1 * w2
    )
    return CoeffTriple(as_complex(c0), as_complex(c1), as_complex(c2))


def sigma_from_w(pp: PoleParam, w: ParamTriple) -> ParamTriple:
    """Polydisk bijection: sigma0 = [w0, p^2], later entries rotated by d-bar/d."""
    _check_polydisk(w)
    p2 = pp.p**2
    d = 1.0 - p2 * w.x0
    fac = np.conj(d) / d  # = |d|^2 / d^2, unimodular
    return ParamTriple(as_complex((w.x0 - p2) / d), as_complex(fac * w.x1),
                       as_complex(fac * w.x2))


def w_from_sigma(pp: PoleParam, sigma: ParamTriple) -> ParamTriple:
    """Inverse of sigma_from_w: w0 = [sigma0, -p^2], rotation undone."""
    _check_polydisk(sigma)
    p2 = pp.p**2
    a = 1.0 + p2 * sigma.x0
    w0 = (sigma.x0 + p2) / a
    d = 1.0 - p2 * w0
    fac = d / np.conj(d)
    return ParamTriple(as_complex(w0), as_complex(fac * sigma.x1),
                       as_complex(fac * sigma.x2))


def c_from_sigma(pp: PoleParam, sigma: ParamTriple) -> CoeffTriple:
    """Closed-form (c0, c1, c2) in the sigma parametrization.

    Equivalent to c_from_w after the change of variables; the bracket
    1 + (P^2-2) sigma0 + sigma0^2 carries all the P-dependence.
    """
    _check_polydisk(sigma)
    P = pp.P
    s0, s1, s2 = sigma
    m0 = 1.0 - abs(s0) ** 2
    m1 = 1.0 - abs(s1) ** 2
    bracket = 1.0 + (P * P - 2.0) * s0 + s0 * s0
    c0 = (1.0 - s0) / P
    c1 = bracket / P**2 + m0 * s1 / P
    c2 = (
        (1.0 - s0) * bracket / P**3
        - (P * P - 2.0 + 2.0 * s0) * m0 * s1 / P**2
        + m0 * np.conj(s0) * s1 * s1 / P
        - m0 * m1 * s2 / P
    )
    return CoeffTriple(as_complex(c0), as_complex(c1), as_complex(c2))


def tau_from_w(pp: PoleParam, w: ParamTriple) -> CoeffTriple:
    """The jet (psi(p), psi'(p), psi''(p)/2) of the constructed self-map."""
    _check_polydisk(w)
    p = pp.p
    w0, w1, w2 = w
    q = 1.0 - p * p
    m0 = 1.0 - abs(w0) ** 2
    m1 = 1.0 - abs(w1) ** 2
    tau0 = p * w0
    tau1 = w0 + p * m0 * w1 / q
    tau2 = (m0 / q**2) * ((1.0 - p * np.conj(w0) * w1) * w1 + p * m1 * w2)
    return CoeffTriple(as_complex(tau0), as_complex(tau1), as_complex(tau2))


def tau_from_c(pp: PoleParam, c: CoeffTriple) -> CoeffTriple:
    """Convert coefficients of phi about 0 to the jet of psi = T_p . phi . T_p at p."""
    p = pp.p
    c0, c1, c2 = c
    d = 1.0 - p * c0
    tau0 = (p - c0) / d
    tau1 = c1 / (d * d)
    tau2 = (-d * c2 + p * c1 * (d - c1)) / ((1.0 - p * p) * d**3)
    return CoeffTriple(as_complex(tau0), as_complex(tau1), as_complex(tau2))


def membership_x2(pp: PoleParam, c: CoeffTriple,
                  tol: float = BOUNDARY_TOL) -> MembershipResult:
    """Decide whether (c0,c1,c2) lies in the order-2 coefficient body.

    Inverts the chain: c -> jet at p -> (w0, w1, w2).  A boundary modulus at
    any step makes the later parameters unidentifiable (their factors
    vanish), so they are canonicalized to 0 and the verdict is "boundary".
    An "outside" verdict has nan parameters.  Array coefficients give an
    array of verdicts and stacked parameters.
    """
    p = pp.p
    q = 1.0 - p * p
    # arrays all the way, a scalar as one row: numpy's scalar complex product
    # can differ from its array loop in the last ulp, and a vanishing
    # denominator gives inf or nan in a step an earlier step has settled
    shape = np.broadcast(*c).shape
    c = CoeffTriple(*(np.array(x, dtype=np.complex128, ndmin=1) for x in c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau0, tau1, tau2 = tau_from_c(pp, c)
        w0 = tau0 / p
        a0 = np.abs(w0)
        m0 = 1.0 - a0 * a0
        w1 = q * (tau1 - w0) / (p * m0)
        a1 = np.abs(w1)
        m1 = 1.0 - a1 * a1
        w2 = (q * q * tau2 - m0 * (1.0 - p * np.conj(w0) * w1) * w1) / (p * m0 * m1)
        a2 = np.abs(w2)
    lo, hi = 1.0 - tol, 1.0 + tol
    # the first step that settles the verdict wins
    decision = np.select(
        [(np.abs(1.0 - p * c.c0) <= 1e-14) | (a0 > hi), a0 >= lo,
         a1 > hi, a1 >= lo, a2 > hi, a2 >= lo],
        ["outside", "boundary", "outside", "boundary", "outside", "boundary"],
        "inside")
    outside = decision == "outside"
    w1 = np.where(a0 >= lo, 0.0, w1)
    w2 = np.where((a0 >= lo) | (a1 >= lo), 0.0, w2)
    params = ParamTriple(*(as_complex(np.where(outside, np.nan, w).reshape(shape))
                           for w in (w0, w1, w2)))
    decision = decision.reshape(shape)
    return MembershipResult(decision.item() if decision.ndim == 0 else decision, params)


def phi_evaluator(pp: PoleParam, w: ParamTriple):
    """Evaluator of the self-map phi = T_p . psi . T_p fixing p.

    Array parameters broadcast against the evaluation points by numpy rules.
    """
    psi = blaschke_psi(pp, *w)
    p = pp.p

    def phi(z):
        return mobius_T(p, psi(mobius_T(p, z)))

    return phi


def phi_series_from_w(pp: PoleParam, w: ParamTriple, n_terms: int) -> TruncatedSeries:
    """Taylor series of phi about 0 via Cauchy sampling of the evaluator.

    phi is analytic on the open unit disk and maps it into itself, even for
    boundary parameters, so its coefficients satisfy |c_k| <= 1.  Sampling
    N points on |z| = r adds to coefficient k the sum over j >= 1 of
    c_{k+jN} r^(jN), at most r^N / (1 - r^N): below 2^-63 at r = 1/2
    with N = max(64, 4 n_terms) points.  The radius does not shrink with p, because
    dividing by r^k amplifies the rounding of the samples by r^-k.
    Array parameters give a stack of series with the same leading axes.
    """
    # a trailing axis on each parameter meets the axis of sampling points
    w = ParamTriple(*(np.asarray(x)[..., None] for x in w))
    return taylor_from_samples(phi_evaluator(pp, w), 0.5, n_terms, max(64, 4 * n_terms))
