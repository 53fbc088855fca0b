"""Order-2 coefficient body of disk self-maps fixing an interior point p.

Two equivalent three-parameter chains describe the body: the w-chain built
directly from the Blaschke construction, and the sigma-chain obtained from
it by a Moebius change of variables in the first parameter.  The w-chain
is Schur's recursion, run forwards by ``phi_series_from_w`` and inverted by
``membership_x2``, so an inside verdict also recovers the parameters.

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

from .disk import DENOM_EPS, PoleParam, blaschke_psi, mobius_T
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

    Runs Schur's algorithm on omega's series: [T_p(z), p] = -z, so
    omega(u) = (p - phi(-u)) (1 + pu) / ((1 - p phi(-u)) (p + u)), a ratio of
    cubics in (c0, c1, c2).  Each step reads w_k = omega_k(0) and takes the
    Schur transform omega_{k+1} = (omega_k - w_k) / (u (1 - conj(w_k) omega_k)).
    A unimodular w_k forces omega_k to be constant, so the verdict is
    "boundary" when the rest of omega_k's series is within 8 ``BOUNDARY_TOL``
    and "outside" otherwise; once settled, omega is set to 0, which makes
    the later parameters 0.  An "outside" verdict has nan parameters.
    Array coefficients give an array of verdicts and stacked parameters.
    """
    p = pp.p
    # arrays all the way, a scalar as one row: numpy's scalar complex product
    # can differ from its array loop in the last ulp
    shape = np.broadcast(*c).shape
    c0, c1, c2 = np.broadcast_arrays(*(np.array(x, dtype=np.complex128, ndmin=1)
                                       for x in c))
    # within tol of a unimodular w_k, 1 - |w_k|^2 is at most 2 tol + tol^2 and
    # the rest of omega_k's series is that times at most 2, which leaves room
    # for rounding below 8 tol
    slack = 8.0 * BOUNDARY_TOL
    # non-finite or huge coefficients give inf or nan in omega's series,
    # which the comparisons below read as outside
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pole = np.abs(1.0 - p * c0) <= DENOM_EPS
        verdict = np.where(pole, 2, 0)  # inside, boundary, outside as 0, 1, 2
        c0 = np.where(pole, 0.0, c0)  # any finite omega: the verdict is settled
        a0, a1, a2 = p - c0, c1, -c2  # p - phi(-u)
        b0, b1, b2 = 1.0 - p * c0, p * c1, -p * c2  # 1 - p phi(-u)
        omega = ratio_series(np.stack([a0, a1 + p * a0, a2 + p * a1, p * a2], axis=-1),
                             np.stack([p * b0, b0 + p * b1, b1 + p * b2, b2], axis=-1), 3)
        w = []
        for k in range(3):
            w.append(omega[..., 0].copy())
            a = np.abs(w[-1])
            varies = ~(np.max(np.abs(omega[..., 1:]), axis=-1, initial=0.0) <= slack)
            on = (verdict == 0) & ~(a < 1.0 - BOUNDARY_TOL)
            verdict = np.where(on, 1 + (~(a <= 1.0 + BOUNDARY_TOL) | varies), verdict)
            omega[verdict > 0] = 0.0
            if k < 2:
                a = np.abs(omega[..., 0])
                den = -np.conj(omega[..., :1]) * omega[..., :-1]
                den[..., 0] = (1.0 - a) * (1.0 + a)  # 1 - conj(w_k) omega_k
                omega = ratio_series(omega[..., 1:], den, 2 - k)
    params = ParamTriple(*(as_complex(np.where(verdict == 2, np.nan, x).reshape(shape))
                           for x in w))
    decision = np.array(["inside", "boundary", "outside"])[verdict.reshape(shape)]
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

    omega = [u [u w2, -w1], -w0] is Schur's recursion
    omega_k = (w_k + u omega_{k+1}) / (1 + conj(w_k) u omega_{k+1}) from
    omega_2 = w2; two steps give omega = N/D, two quadratics in u.
    [T_p(z), p] = -z, so phi = T_p(T_p(z) omega(-z)); with Nt = (p - z) N(-z)
    and Dt = (1 - pz) D(-z), phi = (p Dt - Nt) / (Dt - p Nt), a ratio of
    cubics whose denominator has the constant term 1 - p^2 w0;
    ``ratio_series`` expands it.  No sampling is involved, so the series is
    independent of ``phi_evaluator``'s pointwise Moebius chain.  Array
    parameters give a stack of series, the coefficient axis last.
    """
    p = pp.p
    w0, w1, w2 = np.broadcast_arrays(*(np.asarray(x, dtype=np.complex128) for x in w))
    # omega_2 = w2, then (N, D) <- (w_k D + u N, D + conj(w_k) u N); D(0) stays 1
    n0, n1, d1, d2 = w2, 0.0, 0.0, 0.0
    for wk in (w1, w0):
        cw = np.conj(wk)
        n0, n1, n2, d1, d2 = wk, wk * d1 + n0, wk * d2 + n1, d1 + cw * n0, d2 + cw * n1
    nt = np.stack([p * n0, -p * n1 - n0, p * n2 + n1, -n2], axis=-1)
    dt = np.stack([np.ones_like(w0), -d1 - p, d2 + p * d1, -p * d2], axis=-1)
    return ratio_series(p * dt - nt, dt - p * nt, n_terms)
