"""End-to-end verification against independent numerical routes.

The reconstruction route: from the series of a self-map phi fixing p,
build the derivative series of the associated normalized function through

    f'(z) = p^2 / ((z-p)^2 (1-pz)^2) * exp( int_0^z -2 phi / (1 - t phi) dt ),

integrate term-wise, and read off a2, a3, a4.  Comparing this route with
the two algebraic chains gives the triple-path consistency check, and
``verify_all`` batches every invariant family into one report.

The series route is algebraic: phi's series comes from the rational form
of the chain (``phi_series_from_w``), the f' integrand from one long
division, and the Dieudonne families take psi's jet at p from its closed
form (``tau_from_w``).  Leading axes stack series like the chain functions
stack parameters, so ``a_batch_from_w`` is the scalar route called once on
an array, and the families of ``verify_all`` make one array call per p.

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

``verify_all`` runs two family generators, ``_series_families`` once and
``_families_at`` per p.  Each yields a row (name, residuals, tolerance[,
extra fields]) right after making its own draws, so the order of the rng
stream is the order of the report.  ``residuals`` holds one value per
checked row, of one of three kinds: an absolute difference of two routes,
a difference over a stated scale, or a one-sided excess.  ``_entry`` makes
every report entry: ``samples`` counts the rows, the worst residual is
floored at 0, and a NaN residual fails its family as an inf one does.  A
family whose evaluation raises a package error reads inf on every row.
Every H taken from Phi is ``hankel_from_sigma``'s, every a2 a4 - a3^2 is
``hankel2``'s, and every point of the disk is drawn by ``_disk``.
"""

from __future__ import annotations

import numpy as np

from . import hankel
from .coeffbody import (CoeffTriple, ParamTriple, c_from_sigma, c_from_w,
                        membership_x2, phi_evaluator, phi_series_from_w,
                        sigma_from_w, tau_from_w)
from .disk import (PoleParam, dieudonne2_lhs, dieudonne2_rhs, dieudonne_disk1,
                   mobius_T, rho_coeffs, rho_eval)
from .errors import InvalidInput
from .hankel import (ACoeffs, H_F, A_n, a_from_c, h_p, h_p_prime, hankel2,
                     hankel_from_c, hankel_from_sigma, lower_bound_M, omega_map,
                     upper_bound_M)
from .search import sample_polydisk
from .series import (as_complex, ratio_series, series_derivative, series_exp,
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
    one_minus_zphi = np.concatenate([np.ones_like(phi[..., :1]), -phi], axis=-1)
    integrand = ratio_series(-2.0 * phi, one_minus_zphi, order + 1)
    expo = series_exp(series_integrate(integrand)[..., : order + 1])
    return series_mul(_prefactor_series(pp, order), expo)


def a_from_phi(pp: PoleParam, phi) -> ACoeffs:
    """(a2, a3, a4) from term-wise integration of the f' series."""
    f = series_integrate(fprime_series(pp, phi))
    return ACoeffs(*(as_complex(f[..., k]) for k in (2, 3, 4)))


def a_batch_from_w(pp: PoleParam, W: np.ndarray) -> np.ndarray:
    """Series-route (a2, a3, a4) for the rows of an (n, 3) array of w-triples; (n, 3)."""
    # a2..a4 read f' to z^3, hence phi to z^2: phi's z^3 term only sets the length
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

def _entry(name: str, residuals, tol: float, extra: dict | None = None) -> dict:
    """The report entry of a family from its per-row residuals: ``samples``
    counts the rows, and the worst residual is floored at 0.  np.max
    propagates a NaN, so a NaN residual fails its family, as inf does."""
    worst = float(np.max(residuals, initial=0.0))
    return {"name": name, "samples": len(residuals), "worst_residual": worst,
            "tolerance": float(tol), "pass": worst <= tol, **(extra or {})}


def _or_inf(n: int, evaluate) -> np.ndarray:
    """evaluate(), or n residuals of inf when it raises ``InvalidInput``: near
    p = 1 the pointwise Moebius chain meets a denominator 1 - p^2 that counts
    as vanished, and the family that evaluates it fails."""
    try:
        return evaluate()
    except InvalidInput:
        return np.full(n, np.inf)


def _disk(u: np.ndarray, r: float = 1.0) -> np.ndarray:
    """Area-uniform points of the disk |z| < r from the uniform draws
    u[:, 0] (modulus) and u[:, 1] (argument) of one point a row."""
    return r * np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))


def _series_families(rng):
    """The series-algebra families, as (name, residuals, tolerance) rows."""
    # each row of u holds one sample's draws in the order that
    # rng.uniform(low, high, n) calls would take them
    u = rng.uniform(size=(200, 20))
    c = (-1 + 2 * u[:, :9]) + 1j * (-1 + 2 * u[:, 9:18])
    c[:, 0] = (0.1 + 9.9 * u[:, 18]) * np.exp(1j * (2 * np.pi * u[:, 19]))
    recip = series_reciprocal(c)
    # backward-error scale: the convolution sums terms of this size, so
    # |a0| near 0.1 amplifies the recurrence far beyond unit magnitude
    scale = np.maximum(1.0, np.max(series_mul(np.abs(c), np.abs(recip)).real, axis=-1))
    yield ("series_reciprocal_identity",
           np.max(np.abs(series_mul(c, recip) - np.eye(9)[0]), axis=-1) / scale, 1e-12)

    u = rng.uniform(size=(200, 16))
    d = (-1 + 2 * u[:, :8]) + 1j * (-1 + 2 * u[:, 8:])
    e = series_exp(series_integrate(d))
    # e' = e d, both to d's order
    yield ("series_exp_integrate_derivative",
           np.max(np.abs(series_derivative(e) - series_mul(e, d)), axis=-1), 1e-10)

    # each sample draws its degree between its coefficient draws, so only
    # the draws are per sample; one call recovers the padded polynomials
    coeffs = np.zeros((100, 7), dtype=np.complex128)
    for row in coeffs:
        deg = int(rng.integers(0, 7))
        row[: deg + 1] = rng.uniform(-2, 2, deg + 1) + 1j * rng.uniform(-2, 2, deg + 1)
    got = taylor_from_samples(
        lambda z: np.polynomial.polynomial.polyval(z, coeffs.T), 0.5, 7, 88)
    yield "taylor_polynomial_recovery", np.max(np.abs(got - coeffs), axis=-1), 1e-11

    u = rng.uniform(size=(300, 4))
    a, z = _disk(u[:, :2], 0.95), _disk(u[:, 2:], 0.95)
    yield "mobius_involution", np.abs(mobius_T(a, mobius_T(a, z)) - z), 1e-12


def _families_at(pp: PoleParam, rng, n_random: int):
    """The families at one p, as (name, residuals, tolerance[, extra fields])
    rows without the p tag; the chain families share n_random body points W."""
    p, P = pp.p, pp.P

    zeta = _disk(rng.uniform(size=(50, 2)))
    # for |zeta| <= 1 the pole in z lies at |z| >= (1 + p^2)/(2p) >= 1, so
    # the radius 1/2 suits every p; dividing by r^k, a radius that shrinks
    # with p would amplify rounding
    sampled = taylor_from_samples(lambda z: rho_eval(pp, zeta[:, None], z), 0.5, 6, 256)
    yield ("rho_closed_form_vs_sampling",
           np.max(np.abs(rho_coeffs(pp, zeta, 6) - sampled), axis=-1), 1e-9)

    W = sample_polydisk(rng, n_random)
    Winterior = W * 0.99
    w_all = ParamTriple(*W.T)

    # variability-disk membership of constructed jets, on up to 400 rows;
    # the interior draws keep |tau0| <= 0.99 p
    tau0, tau1, tau2 = tau_from_w(pp, ParamTriple(*Winterior[:400].T))
    disk = dieudonne_disk1(p, tau0)
    yield "dieudonne_first_order", np.abs(tau1 - disk.center) - disk.radius, 1e-8
    yield ("dieudonne_second_order",
           dieudonne2_lhs(p, tau0, tau1, tau2) - dieudonne2_rhs(p, tau0), 1e-8)

    c_w, s_w = c_from_w(pp, w_all), sigma_from_w(pp, w_all)
    cw = np.column_stack(c_w)
    cs = np.column_stack(c_from_sigma(pp, s_w))
    yield "chain_equivalence_w_vs_sigma", np.max(np.abs(cw - cs), axis=1), 1e-11

    # oracle equivalence, fixed point and self-map, on up to 300 rows; one
    # expansion of phi serves this family and the f' family below
    Wo = ParamTriple(*W[:300].T)
    phi = phi_series_from_w(pp, Wo, _FPRIME_TERMS)
    yield "oracle_equivalence_series_vs_w", np.max(np.abs(phi[:, :3] - cw[:300]), axis=1), 1e-8
    ev = phi_evaluator(pp, ParamTriple(*(w[:, None] for w in Wo)))  # rows meet the points
    yield "fixed_point_phi_p", _or_inf(len(phi), lambda: np.abs(ev(np.array([p])) - p)[:, 0]), 1e-12
    zs_disk = _disk(rng.uniform(size=(2, 64)).T)  # 64 moduli, then 64 arguments
    yield ("self_map_bound",
           _or_inf(len(phi), lambda: np.max(np.abs(ev(zs_disk)), axis=1) - 1.0), 1e-12)

    # membership round trip on up to 500 interior rows; a verdict other
    # than "inside" counts as a residual of 1
    Wm = Winterior[:500]
    res = membership_x2(pp, c_from_w(pp, ParamTriple(*Wm.T)))
    err = np.max(np.abs(np.column_stack(res.params) - Wm), axis=1)
    yield "membership_round_trip", np.where(res.decision == "inside", err, 1.0), 1e-9

    # Phi and eq:H against the chain, over the chain's scale
    S = sample_polydisk(rng, n_random)
    c_sig = c_from_sigma(pp, ParamTriple(*S.T))
    hs_chain = hankel2(a_from_c(pp, c_sig))
    scale = max(1.0, float(np.max(np.abs(hs_chain))))
    hs_phi = hankel_from_sigma(pp, ParamTriple(*S.T))
    yield "phi_consistency", np.abs(hs_chain - hs_phi) / scale, 1e-10
    yield "eqH_consistency", np.abs(hankel_from_c(pp, c_sig) - hs_chain) / scale, 1e-10

    zeta = _disk(rng.uniform(size=(200, 2)))
    coeffs = ACoeffs(A_n(pp, zeta, 2), A_n(pp, zeta, 3), A_n(pp, zeta, 4))
    yield "HF_closed_form", np.abs(hankel2(coeffs) - H_F(pp, zeta)), 1e-12

    s0 = _disk(rng.uniform(size=(100, 2)))
    yield ("omega_slice",
           np.abs(omega_map(pp, s0) - hankel_from_sigma(pp, ParamTriple(s0, 0.0, 0.0))), 1e-12)

    # h_p transcription vs Phi slice, anchors, lower identity
    ts = rng.uniform(0.0, 1.0, 100)
    yield ("hp_vs_phi_slice",
           np.abs(h_p(pp, ts) + hankel_from_sigma(pp, ParamTriple(ts, -1.0, 0.0))), 1e-11)
    yield "hp_anchors", np.abs([h_p(pp, 1.0) - 1.0, h_p_prime(pp, 1.0)
                                + 2.0 * (P - 2.0) * (P + 1.0) / (3.0 * P)]), 1e-12
    yield "lower_bound_identity", np.abs([lower_bound_M(pp) - (
        1.0 / (3.0 * p) + p / 3.0 + hankel.g_poly(1.0 / P))]), 1e-10
    yield "bound_sandwich", [lower_bound_M(pp) - upper_bound_M(pp)], 0.0

    # triple path: sigma chain vs w chain vs series route, on up to 2000 chain rows
    h_w = hankel2(a_from_c(pp, CoeffTriple(*(c[:2000] for c in c_w))))
    h_s = hankel_from_sigma(pp, ParamTriple(*(s[:2000] for s in s_w)))
    h_ser = hankel2(ACoeffs(*a_batch_from_w(pp, W[:2000]).T))
    yield ("triple_path_agreement",
           np.maximum(np.abs(h_w - h_s), np.abs(h_w - h_ser)), 1e-8)

    # reconstructed f' series vs direct sampling of the evaluator form, on
    # up to 50 rows, sampled no finer than its error bounds need
    wf = ParamTriple(*W[:50].T)
    n_samples = fprime_sampling_size(p)
    fp = fprime_series(pp, phi[:50])
    yield ("fprime_series_vs_sampling",
           _or_inf(len(fp), lambda: np.max(np.abs(fprime_sampled(pp, wf, n_samples) - fp),
                                           axis=-1)),
           _FPRIME_TOL,
           {"n_samples": n_samples,
            "exponent_bound": float(fprime_exponent_bound(p, n_samples)),
            "aliasing_bound": float(fprime_aliasing_bound(p, n_samples))})


def verify_all(p_values=(0.2, 0.5, 0.8), n_random: int = 1000, seed: int = 1) -> dict:
    """Run every invariant family; returns a JSON-ready report.

    Failures are entries with pass=False, never exceptions.  The report is
    byte-reproducible for fixed inputs.  Equal p values raise InvalidInput,
    since the per-p family names carry p, and so do n_random < 1 and seed < 0.
    """
    if len(set(map(float, p_values))) < len(p_values):
        raise InvalidInput(f"p values must be distinct, got {list(p_values)}")
    if n_random < 1:
        raise InvalidInput(f"n_random must be >= 1, got {n_random}")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    families = [_entry(*row) for row in _series_families(rng)]
    for p in p_values:
        families += [_entry(f"{name}[p={float(p)!r}]", *rest)
                     for name, *rest in _families_at(PoleParam(p), rng, n_random)]
    return {
        "p_values": [float(p) for p in p_values],
        "seed": int(seed),
        "n_random": int(n_random),
        "families": families,
        "pass": all(f["pass"] for f in families),
    }
