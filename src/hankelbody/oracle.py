"""End-to-end verification against independent numerical routes.

The reconstruction route: from the series of a self-map phi fixing p,
build the derivative series of the associated normalized function through

    f'(z) = p^2 / ((z-p)^2 (1-pz)^2) * exp( int_0^z -2 phi / (1 - t phi) dt ),

integrate term-wise, and read off a2, a3, a4.  Comparing this route with
the two algebraic chains gives the triple-path consistency check, and
``verify_all`` batches every invariant family into one report.

The series route is algebraic: phi's series comes from the rational form
of the chain (``phi_series_from_w``), and the Dieudonne families take psi's
jet at p from its closed form (``tau_from_w``).  A series is a coefficient
array with the coefficient axis last, and leading axes stack series like
the chain functions stack parameters, so ``a_batch_from_w`` is the scalar
route called once on an array, and the families of ``verify_all`` make one
array call per p.

The evaluator route samples: ``fprime_sampled`` recovers the same
coefficients by Cauchy sampling of f' in closed form, through the pointwise
Moebius chain of ``phi_evaluator``.  It evaluates phi only at its M sampling
points on |z| = p/2 and integrates the exponent there spectrally, with the
trapezoidal rule on the circle (Trefethen & Weideman, SIAM Review 56,
2014); M comes from the a-priori error bounds ``fprime_aliasing_bound`` and
``fprime_exponent_bound``.  The fixed-point and self-map families also
evaluate ``phi_evaluator``, and the rotation family and
``taylor_polynomial_recovery`` sample their own evaluators.

Each series is expanded only to the order its answer reads: four terms of
phi for a2..a4, and _FPRIME_TERMS for the f' family, whose expansion the
oracle-equivalence family reads the first three terms of.  Truncated series
arithmetic never reads a higher term into a lower one, so the cut changes
no bit of what is read.
"""

from __future__ import annotations

import numpy as np

from . import hankel
from .coeffbody import (CoeffTriple, ParamTriple, c_from_sigma, c_from_w,
                        membership_x2, phi_evaluator, phi_series_from_w,
                        sigma_from_w, tau_from_w)
from .disk import (PoleParam, dieudonne2_lhs, dieudonne2_rhs, dieudonne_disk1,
                   mobius_T, rho_coeffs, rho_eval)
from .errors import HankelBodyError, InvalidInput
from .hankel import (ACoeffs, H_F, A_n, a_from_c, h_p, h_p_prime, hankel2,
                     hankel_from_c, hankel_from_sigma, lower_bound_M, omega_map,
                     phi_p, upper_bound_M)
from .kernels import phi_batch
from .search import sample_polydisk
from .series import (as_complex, series_derivative, series_exp,
                     series_integrate, series_mul, series_reciprocal,
                     taylor_from_samples)

#: the f' family compares this many coefficients, to this tolerance
_FPRIME_TERMS = 5
_FPRIME_TOL = 1e-7


def _prefactor_series(pp: PoleParam, order: int) -> np.ndarray:
    """Series of p^2/((z-p)^2 (1-pz)^2) = 1/((1-z/p)^2 (1-pz)^2) about 0."""
    p = pp.p
    k = np.arange(order + 1)
    # near P_MIN, p^-k exceeds a float: the inf fails the families that use it
    with np.errstate(over="ignore"):
        geo_pole = (k + 1) * (1.0 / p) ** k
    return series_mul(geo_pole, (k + 1) * p**k)


def fprime_series(pp: PoleParam, phi) -> np.ndarray:
    """Series of f' about 0 for the self-map series phi, to phi's order;
    the constant term is 1."""
    phi = np.asarray(phi, dtype=np.complex128)
    order = phi.shape[-1] - 1
    one_minus_zphi = np.zeros_like(phi)
    one_minus_zphi[..., 0] = 1.0
    one_minus_zphi[..., 1:] = -phi[..., :-1]
    integrand = series_mul(-2.0 * phi, series_reciprocal(one_minus_zphi))
    expo = series_exp(series_integrate(integrand)[..., : order + 1])
    return series_mul(_prefactor_series(pp, order), expo)


def a_from_phi(pp: PoleParam, phi) -> ACoeffs:
    """(a2, a3, a4) from term-wise integration of the f' series."""
    f = series_integrate(fprime_series(pp, phi))
    return ACoeffs(*(as_complex(f[..., k]) for k in (2, 3, 4)))


def a_batch_from_w(pp: PoleParam, W: np.ndarray) -> np.ndarray:
    """Series-route (a2, a3, a4) for the rows of an (n, 3) array of w-triples; (n, 3)."""
    # a_from_phi reads f' up to z^3, which needs phi's first four terms
    phi = phi_series_from_w(pp, ParamTriple(*W.T), 4)
    return np.column_stack(a_from_phi(pp, phi))


# --- the evaluator route for f' ----------------------------------------------

def fprime_sampled(pp: PoleParam, w: ParamTriple, n_samples: int) -> np.ndarray:
    """First _FPRIME_TERMS Taylor coefficients of f' by Cauchy sampling of
    its closed form at M = ``n_samples`` points z_j on |z| = r = p/2.

    phi is evaluated at the same z_j, through the pointwise Moebius chain,
    and G = -2 phi / (1 - z phi) with it.  The exponent E(z) = int_0^z G dt
    is integrated spectrally, by the trapezoidal rule on the circle
    (``_circle_antiderivative``): G's DFT is integrated term by term and an
    inverse DFT gives E(z_j).  So phi is evaluated at exactly M points per
    row.  Array parameters give a stack of coefficient rows with the same
    leading axes.
    """
    p = pp.p
    r = p / 2
    # trailing axes on each parameter meet the sample axis
    ev = phi_evaluator(pp, ParamTriple(*(np.asarray(x)[..., None] for x in w)))

    def fprime(z):
        # z are taylor_from_samples' points r e^(2 pi i j / M), in order
        vals = ev(z)
        expo = _circle_antiderivative(-2.0 * vals / (1.0 - z * vals), r)
        return p**2 / ((z - p) ** 2 * (1.0 - p * z) ** 2) * np.exp(expo)

    return taylor_from_samples(fprime, r, _FPRIME_TERMS, n_samples)


def _circle_antiderivative(vals: np.ndarray, r: float) -> np.ndarray:
    """Values at z_j = r e^(2 pi i j / M), j < M, of the antiderivative
    vanishing at 0 of an analytic g, from g's values there (last axis).

    Bin k of the DFT holds M g_k r^k, up to aliasing; integration weights
    it by r/(k+1) and moves it to power k+1, with power M aliasing to 0.
    """
    m = vals.shape[-1]
    spectrum = np.fft.fft(vals) * (r / np.arange(1, m + 1))
    return np.fft.ifft(np.roll(spectrum, 1, axis=-1))


def fprime_aliasing_bound(p: float, n_samples: int) -> float:
    """A-priori aliasing error of ``fprime_sampled`` in its coefficients.

    The coefficients of f' are b_n = (n+1) a_{n+1}, and the centre plus the
    radius of ``aw_disk`` bound |a_n| by (1 - p^(2n)) / ((1-p^2) p^(n-1)) <=
    p^(1-n) / (1-p^2).  Sampling N points on |z| = p/2 adds to coefficient k
    the sum over j >= 1 of b_{k+jN} (p/2)^(jN), at most
    p^-k / (1-p^2) * sum_j (k+1+jN) 2^(-jN); the largest k dominates.
    """
    k = _FPRIME_TERMS - 1
    q = 0.5**n_samples
    return p**-k / (1.0 - p * p) * ((k + 1) * q / (1.0 - q) + n_samples * q / (1.0 - q) ** 2)


def fprime_exponent_bound(p: float, n_samples: int) -> float:
    """A-priori error the spectral exponent adds to ``fprime_sampled``'s coefficients.

    G = -2 phi / (1 - t phi) is analytic on |t| < 1 with |G| <= 2/(1-R) on
    |t| <= R, because |phi| <= 1, so its coefficients obey
    |g_n| <= 2 / ((1-R) R^n).  On |z| = r = p/2 the M-point rule keeps
    g_0..g_{M-1}, each with the tail g_{k+lM} folded onto it, and weights
    every term by at most 1; so E is off by at most the sum over n >= M of
    |g_n| r^(n+1) <= 2r (r/R)^M / ((1-R)(1-r/R)), minimised here over a grid
    of R in (r, 1).  An error e in the exponent moves f' by |f'| (e^e - 1),
    where |f'| <= p^2 / ((p-r)^2 (1-pr)^2 (1-r)^2), and the Cauchy sum
    divides coefficient k by r^k.
    """
    r = p / 2
    R = r + (1.0 - r) * np.linspace(0.0, 1.0, 1001)[1:-1]
    err = np.min(2.0 * r * (r / R) ** n_samples / ((1.0 - R) * (1.0 - r / R)))
    fmax = p * p / ((p - r) ** 2 * (1.0 - p * r) ** 2 * (1.0 - r) ** 2)
    return float(fmax * np.expm1(err) / r ** (_FPRIME_TERMS - 1))


def fprime_sampling_size(p: float) -> int:
    """n_samples for ``fprime_sampled``: the smallest power of two at least
    4*_FPRIME_TERMS at which the aliasing and exponent bounds are each at
    most _FPRIME_TOL/10."""
    n = 1 << (4 * _FPRIME_TERMS - 1).bit_length()
    while max(fprime_aliasing_bound(p, n), fprime_exponent_bound(p, n)) > _FPRIME_TOL / 10:
        n *= 2
    return n


# --- batch verification ------------------------------------------------------

def _family(name, samples, worst, tol):
    return {
        "name": name,
        "samples": int(samples),
        "worst_residual": float(worst),
        "tolerance": float(tol),
        "pass": bool(worst <= tol),
    }


def _residual(evaluate) -> float:
    """evaluate(), or inf when the evaluation raises a package error: near
    p = 1 the pointwise Moebius chain meets a denominator 1 - p^2 that
    counts as vanished, and the family that evaluates it fails."""
    try:
        return evaluate()
    except HankelBodyError:
        return np.inf


def verify_all(p_values=(0.2, 0.5, 0.8), n_random: int = 1000, seed: int = 1) -> dict:
    """Run every invariant family; returns a JSON-ready report.

    Failures are entries with pass=False, never exceptions: a family whose
    evaluation raises a package error reports the residual inf.  The report
    is byte-reproducible for fixed inputs.  Equal p values raise
    InvalidInput, since the per-p family names carry p.
    """
    if len(set(map(float, p_values))) < len(p_values):
        raise InvalidInput(f"p values must be distinct, got {list(p_values)}")
    rng = np.random.default_rng(seed)
    families = []

    # series algebra; each row of u holds one sample's draws in the order
    # that rng.uniform(low, high, n) calls would take them
    u = rng.uniform(size=(200, 20))
    c = (-1 + 2 * u[:, :9]) + 1j * (-1 + 2 * u[:, 9:18])
    c[:, 0] = (0.1 + 9.9 * u[:, 18]) * np.exp(1j * (2 * np.pi * u[:, 19]))
    recip = series_reciprocal(c)
    prod = series_mul(c, recip) - np.eye(9)[0]
    # backward-error scale: the convolution sums terms of this size, so
    # |a0| near 0.1 amplifies the recurrence far beyond unit magnitude
    conv = series_mul(np.abs(c), np.abs(recip))
    scale = np.maximum(1.0, np.max(conv.real, axis=-1))
    worst = np.max(np.max(np.abs(prod), axis=-1) / scale)
    families.append(_family("series_reciprocal_identity", 200, worst, 1e-12))

    u = rng.uniform(size=(200, 16))
    d = (-1 + 2 * u[:, :8]) + 1j * (-1 + 2 * u[:, 8:])
    e = series_exp(series_integrate(d))
    # e' = e d, both to d's order
    worst = np.max(np.abs(series_derivative(e) - series_mul(e, d)))
    families.append(_family("series_exp_integrate_derivative", 200, worst, 1e-10))

    # each sample draws its degree between its coefficient draws, so only
    # the draws are per sample; one call recovers the padded polynomials
    coeffs = np.zeros((100, 7), dtype=np.complex128)
    for row in coeffs:
        deg = int(rng.integers(0, 7))
        row[: deg + 1] = rng.uniform(-2, 2, deg + 1) + 1j * rng.uniform(-2, 2, deg + 1)
    got = taylor_from_samples(
        lambda z: np.polynomial.polynomial.polyval(z, coeffs.T), 0.5, 7, 88)
    worst = np.max(np.abs(got - coeffs))
    families.append(_family("taylor_polynomial_recovery", 100, worst, 1e-11))

    u = rng.uniform(size=(300, 4))
    a = 0.95 * np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
    z = 0.95 * np.sqrt(u[:, 2]) * np.exp(1j * (2 * np.pi * u[:, 3]))
    worst = np.max(np.abs(mobius_T(a, mobius_T(a, z)) - z))
    families.append(_family("mobius_involution", 300, worst, 1e-12))

    for p in p_values:
        pp = PoleParam(p)
        P = pp.P
        tag = f"p={float(p)!r}"

        u = rng.uniform(size=(50, 2))
        zeta = np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
        closed = rho_coeffs(pp, zeta, 6)
        # for |zeta| <= 1 the pole in z lies at |z| >= (1 + p^2)/(2p) >= 1, so
        # the radius 1/2 suits every p; dividing by r^k, a radius that shrinks
        # with p would amplify rounding
        sampled = taylor_from_samples(lambda z: rho_eval(pp, zeta[:, None], z), 0.5, 6, 256)
        worst = np.max(np.abs(closed - sampled))
        families.append(_family(f"rho_closed_form_vs_sampling[{tag}]", 50, worst, 1e-9))

        W = sample_polydisk(rng, n_random)
        Winterior = W * 0.99
        w_all = ParamTriple(*W.T)

        # variability-disk membership of constructed jets; worst residuals
        # are floored at 0.0, and the second order skips |tau0| near p
        n_jet = min(n_random, 400)
        tau0, tau1, tau2 = tau_from_w(pp, ParamTriple(*Winterior[:n_jet].T))
        disk = dieudonne_disk1(p, tau0)
        worst1 = np.max(np.abs(tau1 - disk.center) - disk.radius, initial=0.0)
        inner = np.abs(tau0) < p * (1 - 1e-6)
        lhs = dieudonne2_lhs(p, tau0[inner], tau1[inner], tau2[inner])
        worst2 = np.max(lhs - dieudonne2_rhs(p, tau0[inner]), initial=0.0)
        families.append(_family(f"dieudonne_first_order[{tag}]", n_jet, worst1, 1e-8))
        families.append(_family(f"dieudonne_second_order[{tag}]", n_jet, worst2, 1e-8))

        # chain equivalence
        c_w, s_w = c_from_w(pp, w_all), sigma_from_w(pp, w_all)
        cw = np.column_stack(c_w)
        cs = np.column_stack(c_from_sigma(pp, s_w))
        worst = np.max(np.abs(cw - cs))
        families.append(_family(f"chain_equivalence_w_vs_sigma[{tag}]", n_random, worst, 1e-11))

        # oracle equivalence + fixed point + self-map, on a subset
        zs_disk = np.sqrt(rng.uniform(size=64)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        n_oracle = min(n_random, 300)
        Wo = W[:n_oracle]
        # one expansion serves this family and the f' family below
        phi = phi_series_from_w(pp, ParamTriple(*Wo.T), _FPRIME_TERMS)
        worst_o = np.max(np.abs(phi[:, :3] - cw[:n_oracle]))
        ev = phi_evaluator(pp, ParamTriple(*Wo.T[..., None]))  # rows meet the points
        worst_f = _residual(lambda: np.max(np.abs(ev(np.array([p])) - p)))
        worst_s = _residual(lambda: max(0.0, np.max(np.abs(ev(zs_disk))) - 1.0))
        families.append(_family(f"oracle_equivalence_series_vs_w[{tag}]", n_oracle, worst_o, 1e-8))
        families.append(_family(f"fixed_point_phi_p[{tag}]", n_oracle, worst_f, 1e-12))
        families.append(_family(f"self_map_bound[{tag}]", n_oracle, worst_s, 1e-12))

        # membership round trip on interior parameters; a verdict other
        # than "inside" counts as a residual of 1
        n_member = min(n_random, 500)
        Wm = Winterior[:n_member]
        res = membership_x2(pp, c_from_w(pp, ParamTriple(*Wm.T)))
        err = np.max(np.abs(np.column_stack(res.params) - Wm), axis=1)
        worst = np.max(np.where(res.decision == "inside", err, 1.0))
        families.append(_family(f"membership_round_trip[{tag}]", n_member, worst, 1e-9))

        # Phi consistency (relative) and eq:H consistency
        S = sample_polydisk(rng, n_random)
        c_sig = c_from_sigma(pp, ParamTriple(*S.T))
        hs_chain = hankel2(a_from_c(pp, c_sig))
        hs_phi = phi_batch(P, S[:, 0], S[:, 1], S[:, 2]) / (18.0 * P**3)
        scale_ref = max(1.0, float(np.max(np.abs(hs_chain))))
        families.append(_family(
            f"phi_consistency[{tag}]", n_random,
            float(np.max(np.abs(hs_chain - hs_phi))) / scale_ref, 1e-10))
        hs_c = hankel_from_c(pp, c_sig)
        families.append(_family(
            f"eqH_consistency[{tag}]", n_random,
            float(np.max(np.abs(hs_c - hs_chain))) / scale_ref, 1e-10))

        # rotation family closed form; u[:, 0] and u[:, 1] interleave as
        # the modulus and argument draws of one zeta at a time
        u = rng.uniform(size=(200, 2))
        zeta = np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
        coeffs = ACoeffs(A_n(pp, zeta, 2), A_n(pp, zeta, 3), A_n(pp, zeta, 4))
        worst = np.max(np.abs(hankel2(coeffs) - H_F(pp, zeta)))
        families.append(_family(f"HF_closed_form[{tag}]", 200, worst, 1e-12))

        u = rng.uniform(size=(100, 2))
        s0 = np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
        worst = np.max(np.abs(omega_map(pp, s0)
                              - phi_p(pp, ParamTriple(s0, 0.0, 0.0)) / (18.0 * P**3)))
        families.append(_family(f"omega_slice[{tag}]", 100, worst, 1e-12))

        # h_p transcription vs Phi slice, anchors, lower identity
        ts = rng.uniform(0.0, 1.0, 100)
        worst = np.max(np.abs(h_p(pp, ts) + phi_p(pp, ParamTriple(ts, -1.0, 0.0)) / (18.0 * P**3)))
        families.append(_family(f"hp_vs_phi_slice[{tag}]", 100, worst, 1e-11))
        anchor = max(abs(h_p(pp, 1.0) - 1.0),
                     abs(h_p_prime(pp, 1.0) + 2.0 * (P - 2.0) * (P + 1.0) / (3.0 * P)))
        families.append(_family(f"hp_anchors[{tag}]", 2, anchor, 1e-12))
        ident = abs(lower_bound_M(pp)
                    - (1.0 / (3.0 * p) + p / 3.0 + hankel.g_poly(1.0 / P)))
        families.append(_family(f"lower_bound_identity[{tag}]", 1, ident, 1e-10))
        sandwich = max(lower_bound_M(pp) - upper_bound_M(pp), 0.0)
        families.append(_family(f"bound_sandwich[{tag}]", 1, sandwich, 0.0))

        # triple path: sigma chain vs w chain vs series route, on the chain rows above
        n_triple = min(n_random, 2000)
        h_w = hankel2(a_from_c(pp, CoeffTriple(*(c[:n_triple] for c in c_w))))
        h_s = hankel_from_sigma(pp, ParamTriple(*(s[:n_triple] for s in s_w)))
        A = a_batch_from_w(pp, W[:n_triple])
        h_ser = A[:, 0] * A[:, 2] - A[:, 1] ** 2
        worst = float(max(np.max(np.abs(h_w - h_s)), np.max(np.abs(h_w - h_ser))))
        families.append(_family(f"triple_path_agreement[{tag}]", n_triple, worst, 1e-8))

        # reconstructed f' series vs direct sampling of the evaluator form,
        # sampled no finer than its error bounds need
        n_fprime = min(n_random, 50)
        wf = ParamTriple(*W[:n_fprime].T)
        n_samples = fprime_sampling_size(p)
        fp = fprime_series(pp, phi[:n_fprime])
        worst = _residual(lambda: np.max(np.abs(fprime_sampled(pp, wf, n_samples) - fp)))
        families.append({
            **_family(f"fprime_series_vs_sampling[{tag}]", n_fprime, worst, _FPRIME_TOL),
            "n_samples": n_samples,
            "exponent_bound": float(fprime_exponent_bound(p, n_samples)),
            "aliasing_bound": float(fprime_aliasing_bound(p, n_samples)),
        })

    report = {
        "p_values": [float(p) for p in p_values],
        "seed": int(seed),
        "n_random": int(n_random),
        "families": families,
        "pass": all(f["pass"] for f in families),
    }
    return report
