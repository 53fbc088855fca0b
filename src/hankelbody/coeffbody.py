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

from .disk import PoleParam, blaschke_psi, mobius_T, omega_pair
from .errors import InvalidInput
from .series import as_complex, ratio_series

#: modulus within this distance of 1 counts as a boundary parameter
BOUNDARY_TOL = 1e-9


class ParamTriple(NamedTuple):
    """Three parameters in the closed unit polydisk (scalars or equal-shape arrays)."""

    x0: complex
    x1: complex
    x2: complex


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
    if not np.all(np.abs(w) <= 1.0 + 1e-10):
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


def membership_x2(pp: PoleParam, c: CoeffTriple) -> MembershipResult:
    """Decide whether (c0,c1,c2) lies in the order-2 coefficient body.

    Inverts the chain: c -> jet at p -> (w0, w1, w2).  A unimodular parameter
    at some step makes the later parameters unidentifiable (their factors
    vanish), so they are canonicalized to 0, and it forces the rest of the
    jet: |w0| = 1 forces tau1 = w0 and tau2 = 0, and |w1| = 1 forces
    q^2 tau2 = m0 (1 - p conj(w0) w1) w1.  The verdict is "boundary" when the
    forced data hold within 8 ``BOUNDARY_TOL`` and "outside" otherwise.
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
        # q (tau1 - w0) = p m0 w1 and r2 = p m0 m1 w2 along the chain
        r1 = q * (tau1 - w0)
        w1 = r1 / (p * m0)
        a1 = np.abs(w1)
        m1 = 1.0 - a1 * a1
        r2 = q * q * tau2 - m0 * (1.0 - p * np.conj(w0) * w1) * w1
        w2 = r2 / (p * m0 * m1)
        a2 = np.abs(w2)
    lo, hi = 1.0 - BOUNDARY_TOL, 1.0 + BOUNDARY_TOL
    # within tol of a unimodular step, |m0| or |m1| is at most 2 tol + tol^2
    # and r1, q^2 tau2 or r2 is that times at most 3, which leaves room for
    # rounding below 8 tol
    slack = 8.0 * BOUNDARY_TOL
    on0, on1 = a0 >= lo, a1 >= lo
    unforced0 = ~(np.maximum(np.abs(r1), q * q * np.abs(tau2)) <= slack)
    unforced1 = ~(np.abs(r2) <= slack)
    # the first step that settles the verdict wins
    decision = np.select(
        [(np.abs(1.0 - p * c.c0) <= 1e-14) | (a0 > hi) | (on0 & unforced0), on0,
         (a1 > hi) | (on1 & unforced1), on1, a2 > hi, a2 >= lo],
        ["outside", "boundary", "outside", "boundary", "outside", "boundary"],
        "inside")
    outside = decision == "outside"
    w1 = np.where(on0, 0.0, w1)
    w2 = np.where(on0 | on1, 0.0, w2)
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


def phi_series_from_w(pp: PoleParam, w: ParamTriple, n_terms: int) -> np.ndarray:
    """Taylor series of phi about 0, from the rational form of the chain.

    [T_p(z), p] = -z, so phi = T_p(T_p(z) omega(-z)).  With omega = N/D from
    ``omega_pair``, Nt = (p - z) N(-z) and Dt = (1 - pz) D(-z) make
    phi = (p Dt - Nt) / (Dt - p Nt), a ratio of cubics whose denominator has
    the constant term 1 - p^2 w0; ``ratio_series`` expands it.  No sampling
    is involved, so the series is independent of ``phi_evaluator``'s
    pointwise Moebius chain.  Array parameters give a stack of series, the
    coefficient axis last behind the same leading axes.
    """
    p = pp.p
    num, den = omega_pair(*w)
    n0, n1, n2 = np.moveaxis(num, -1, 0)
    d0, d1, d2 = np.moveaxis(den, -1, 0)
    nt = np.stack([p * n0, -p * n1 - n0, p * n2 + n1, -n2], axis=-1)
    dt = np.stack([d0, -d1 - p * d0, d2 + p * d1, -p * d2], axis=-1)
    return ratio_series(p * dt - nt, dt - p * nt, n_terms)
