"""End-to-end verification against independent numerical routes.

The reconstruction route: from the series of a self-map phi fixing p,
build the derivative series of the associated normalized function through

    f'(z) = p^2 / ((z-p)^2 (1-pz)^2) * exp( int_0^z -2 phi / (1 - t phi) dt ),

integrate term-wise, and read off a2, a3, a4.  Comparing this route with
the two algebraic chains gives the triple-path consistency check, and
``verify_all`` batches every invariant family into one report.
"""

from __future__ import annotations

import numpy as np

from . import hankel
from .coeffbody import (CoeffTriple, ParamTriple, c_from_sigma, c_from_w,
                        membership_x2, phi_evaluator, phi_series_from_w,
                        sigma_from_w, tau_from_w, w_from_sigma)
from .disk import (PoleParam, blaschke_psi, derivatives_at, dieudonne2_lhs,
                   dieudonne2_rhs, dieudonne_disk1, mobius_T, pseudo_hyperbolic,
                   rho_coeffs, rho_eval)
from .hankel import (ACoeffs, H_F, A_n, a_from_c, aw_disk, h_p, h_p_prime,
                     hankel2, hankel_from_c, hankel_from_sigma, lower_bound_M,
                     omega_map, phi_p, upper_bound_M)
from .kernels import phi_batch
from .search import sample_polydisk
from .series import (TruncatedSeries, series_derivative, series_exp,
                     series_from_constant, series_integrate, series_mul,
                     series_reciprocal, taylor_from_samples)

DEFAULT_ORDER = 8


def _prefactor_series(pp: PoleParam, order: int) -> TruncatedSeries:
    """Series of p^2/((z-p)^2 (1-pz)^2) = 1/((1-z/p)^2 (1-pz)^2) about 0."""
    p = pp.p
    k = np.arange(order + 1)
    geo_pole = TruncatedSeries((k + 1) * (1.0 / p) ** k)
    geo_unit = TruncatedSeries((k + 1) * p**k)
    return series_mul(geo_pole, geo_unit)


def fprime_series(pp: PoleParam, phi: TruncatedSeries) -> TruncatedSeries:
    """Series of f' about 0 for the self-map series phi; constant term is 1."""
    order = phi.order
    z = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        z[1] = 1.0
    one_minus_zphi = series_mul(TruncatedSeries(z), phi).scaled(-1.0)
    one_minus_zphi = TruncatedSeries(
        np.concatenate(([1.0 + one_minus_zphi.coeffs[0]], one_minus_zphi.coeffs[1:]))
    )
    integrand = series_mul(phi.scaled(-2.0), series_reciprocal(one_minus_zphi))
    expo = series_exp(series_integrate(integrand).truncated(order))
    return series_mul(_prefactor_series(pp, order), expo)


def a_from_phi(pp: PoleParam, phi: TruncatedSeries) -> ACoeffs:
    """(a2, a3, a4) from term-wise integration of the f' series."""
    fp = fprime_series(pp, phi)
    f = series_integrate(fp)
    return ACoeffs(f[2], f[3], f[4])


# --- batched series route (hot path for the triple-path family) --------------

def a_batch_from_w(pp: PoleParam, W: np.ndarray, order: int = DEFAULT_ORDER,
                   n_samples: int = 256) -> np.ndarray:
    """Series-route (a2,a3,a4) for many w-triples at once; returns (n,3).

    Same computation as a_from_phi(phi_series_from_w(...)) but with the
    Cauchy sampling and the series recurrences vectorized over samples.
    """
    p = pp.p
    n = W.shape[0]
    r = p / 2.0
    m = n_samples
    zs = r * np.exp(2j * np.pi * np.arange(m) / m)[None, :]

    w0 = W[:, 0][:, None]
    w1 = W[:, 1][:, None]
    w2 = W[:, 2][:, None]
    tz = (p - zs) / (1.0 - p * zs)
    u = (tz - p) / (1.0 - p * tz)
    inner = (w2 * u + w1) / (1.0 + np.conj(w1) * w2 * u)
    om = (u * inner + w0) / (1.0 + np.conj(w0) * u * inner)
    psi = tz * om
    phi_vals = (p - psi) / (1.0 - p * psi)

    spectrum = np.fft.fft(phi_vals, axis=1)
    ks = np.arange(order + 1)
    ph = spectrum[:, : order + 1] / (m * r**ks)  # (n, order+1) coefficients

    def bmul(a, b):
        out = np.zeros_like(a)
        for k in range(order + 1):
            out[:, k] = np.einsum("ij,ij->i", a[:, : k + 1], b[:, k::-1])
        return out

    def brecip(a):
        out = np.zeros_like(a)
        out[:, 0] = 1.0 / a[:, 0]
        for k in range(1, order + 1):
            out[:, k] = -np.einsum("ij,ij->i", a[:, 1 : k + 1], out[:, k - 1 :: -1]) / a[:, 0]
        return out

    def bexp(a):
        out = np.zeros_like(a)
        out[:, 0] = 1.0
        ja = a * np.arange(order + 1)
        for k in range(1, order + 1):
            out[:, k] = np.einsum("ij,ij->i", ja[:, 1 : k + 1], out[:, k - 1 :: -1]) / k
        return out

    one_minus_zphi = np.zeros_like(ph)
    one_minus_zphi[:, 0] = 1.0
    one_minus_zphi[:, 1:] -= ph[:, :-1]
    integrand = bmul(-2.0 * ph, brecip(one_minus_zphi))
    integ = np.zeros_like(ph)
    integ[:, 1:] = integrand[:, :-1] / np.arange(1, order + 1)
    expo = bexp(integ)
    pre = _prefactor_series(pp, order).coeffs[None, :].repeat(n, axis=0)
    fp = bmul(pre, expo)
    # a_n = fp[:, n-1] / n
    return np.column_stack([fp[:, 1] / 2.0, fp[:, 2] / 3.0, fp[:, 3] / 4.0])


# --- batch verification ------------------------------------------------------

def _family(name, samples, worst, tol):
    return {
        "name": name,
        "samples": int(samples),
        "worst_residual": float(worst),
        "tolerance": float(tol),
        "pass": bool(worst <= tol),
    }


def verify_all(p_values=(0.2, 0.5, 0.8), n_random: int = 1000, seed: int = 1) -> dict:
    """Run every invariant family; returns a JSON-ready report.

    Failures are entries with pass=False, never exceptions.  The report is
    byte-reproducible for fixed inputs.
    """
    rng = np.random.default_rng(seed)
    families = []

    # series algebra
    worst = 0.0
    for _ in range(200):
        c = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        c[0] = (0.1 + rng.uniform(0, 9.9)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        s = TruncatedSeries(c)
        recip = series_reciprocal(s)
        prod = series_mul(s, recip)
        unit = np.zeros(9, complex)
        unit[0] = 1.0
        # backward-error scale: the convolution sums terms of this size, so
        # |a0| near 0.1 amplifies the recurrence far beyond unit magnitude
        scale = max(1.0, float(np.max(np.convolve(np.abs(c), np.abs(recip.coeffs))[:9])))
        worst = max(worst, float(np.max(np.abs(prod.coeffs - unit))) / scale)
    families.append(_family("series_reciprocal_identity", 200, worst, 1e-12))

    worst = 0.0
    for _ in range(200):
        d = TruncatedSeries(rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        e = series_exp(series_integrate(d).truncated(8))
        lhs = series_derivative(e)
        rhs = series_mul(e, d)
        nmin = min(lhs.order, rhs.order)
        worst = max(worst, float(np.max(np.abs(lhs.coeffs[: nmin + 1] - rhs.coeffs[: nmin + 1]))))
    families.append(_family("series_exp_integrate_derivative", 200, worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        coeffs = rng.uniform(-2, 2, deg + 1) + 1j * rng.uniform(-2, 2, deg + 1)
        got = taylor_from_samples(
            lambda z: np.polynomial.polynomial.polyval(z, coeffs),
            0.5, deg + 1, 64 + 4 * deg)
        worst = max(worst, float(np.max(np.abs(got.coeffs - coeffs))))
    families.append(_family("taylor_polynomial_recovery", 100, worst, 1e-11))

    worst = 0.0
    for _ in range(300):
        a = 0.95 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = 0.95 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        worst = max(worst, abs(mobius_T(a, mobius_T(a, z)) - z))
    families.append(_family("mobius_involution", 300, worst, 1e-12))

    for p in p_values:
        pp = PoleParam(p)
        P = pp.P
        tag = f"p={p:g}"

        worst = 0.0
        for _ in range(50):
            zeta = np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            closed = rho_coeffs(pp, complex(zeta), 6)
            sampled = taylor_from_samples(lambda z: rho_eval(pp, zeta, z), p / 2, 6, 256)
            worst = max(worst, float(np.max(np.abs(closed.coeffs - sampled.coeffs))))
        families.append(_family(f"rho_closed_form_vs_sampling[{tag}]", 50, worst, 1e-9))

        W = sample_polydisk(rng, n_random)
        Winterior = W * 0.99

        # variability-disk membership of constructed jets
        worst1 = worst2 = 0.0
        n_jet = min(n_random, 400)
        for w in Winterior[:n_jet]:
            psi = blaschke_psi(pp, *w)
            jet = derivatives_at(psi, p, 2, radius=min(0.4 * (1 - p), 0.2))
            tau0, tau1, tau2 = jet
            disk = dieudonne_disk1(p, complex(tau0))
            worst1 = max(worst1, abs(tau1 - disk.center) - disk.radius)
            if abs(tau0) < p * (1 - 1e-6):
                lhs = dieudonne2_lhs(p, complex(tau0), complex(tau1), complex(tau2))
                worst2 = max(worst2, lhs - dieudonne2_rhs(p, complex(tau0)))
        families.append(_family(f"dieudonne_first_order[{tag}]", n_jet, worst1, 1e-8))
        families.append(_family(f"dieudonne_second_order[{tag}]", n_jet, worst2, 1e-8))

        # chain equivalence
        worst = 0.0
        for w in W:
            wt = ParamTriple(*map(complex, w))
            cw = c_from_w(pp, wt)
            cs = c_from_sigma(pp, sigma_from_w(pp, wt))
            worst = max(worst, max(abs(x - y) for x, y in zip(cw, cs)))
        families.append(_family(f"chain_equivalence_w_vs_sigma[{tag}]", n_random, worst, 1e-11))

        # oracle equivalence + fixed point + self-map, on a subset
        worst_o = worst_f = worst_s = 0.0
        zs_disk = np.sqrt(rng.uniform(size=64)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        n_oracle = min(n_random, 300)
        for w in W[:n_oracle]:
            wt = ParamTriple(*map(complex, w))
            ser = phi_series_from_w(pp, wt, 3)
            cw = c_from_w(pp, wt)
            worst_o = max(worst_o, float(np.max(np.abs(ser.coeffs - np.array(cw)))))
            ev = phi_evaluator(pp, wt)
            worst_f = max(worst_f, abs(ev(np.array([p]))[0] - p))
            worst_s = max(worst_s, float(np.max(np.abs(ev(zs_disk)))) - 1.0)
        families.append(_family(f"oracle_equivalence_series_vs_w[{tag}]", n_oracle, worst_o, 1e-8))
        families.append(_family(f"fixed_point_phi_p[{tag}]", n_oracle, worst_f, 1e-12))
        families.append(_family(f"self_map_bound[{tag}]", n_oracle, worst_s, 1e-12))

        # membership round trip on interior parameters
        worst = 0.0
        n_member = min(n_random, 500)
        for w in Winterior[:n_member]:
            wt = ParamTriple(*map(complex, w))
            res = membership_x2(pp, c_from_w(pp, wt))
            if res.decision != "inside" or res.params is None:
                worst = max(worst, 1.0)
            else:
                worst = max(worst, max(abs(x - y) for x, y in zip(res.params, wt)))
        families.append(_family(f"membership_round_trip[{tag}]", n_member, worst, 1e-9))

        # Phi consistency (relative) and eq:H consistency
        S = sample_polydisk(rng, n_random)
        hs_chain = np.array([
            hankel2(a_from_c(pp, c_from_sigma(pp, ParamTriple(*map(complex, s))))) for s in S
        ])
        hs_phi = phi_batch(P, S[:, 0], S[:, 1], S[:, 2]) / (18.0 * P**3)
        scale_ref = max(1.0, float(np.max(np.abs(hs_chain))))
        families.append(_family(
            f"phi_consistency[{tag}]", n_random,
            float(np.max(np.abs(hs_chain - hs_phi))) / scale_ref, 1e-10))
        hs_c = np.array([
            hankel_from_c(pp, c_from_sigma(pp, ParamTriple(*map(complex, s)))) for s in S
        ])
        families.append(_family(
            f"eqH_consistency[{tag}]", n_random,
            float(np.max(np.abs(hs_c - hs_chain))) / scale_ref, 1e-10))

        # rotation family closed form
        worst = 0.0
        for _ in range(200):
            zeta = complex(np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            coeffs = ACoeffs(A_n(pp, zeta, 2), A_n(pp, zeta, 3), A_n(pp, zeta, 4))
            worst = max(worst, abs(hankel2(coeffs) - H_F(pp, zeta)))
        families.append(_family(f"HF_closed_form[{tag}]", 200, worst, 1e-12))

        worst = 0.0
        for _ in range(100):
            s0 = complex(np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            worst = max(worst, abs(omega_map(pp, s0)
                                   - phi_p(pp, ParamTriple(s0, 0.0, 0.0)) / (18.0 * P**3)))
        families.append(_family(f"omega_slice[{tag}]", 100, worst, 1e-12))

        # h_p transcription vs Phi slice, anchors, lower identity
        ts = rng.uniform(0.0, 1.0, 100)
        worst = max(
            abs(h_p(pp, float(t))
                + phi_p(pp, ParamTriple(float(t), -1.0, 0.0)) / (18.0 * P**3))
            for t in ts
        )
        families.append(_family(f"hp_vs_phi_slice[{tag}]", 100, worst, 1e-11))
        anchor = max(abs(h_p(pp, 1.0) - 1.0),
                     abs(h_p_prime(pp, 1.0) + 2.0 * (P - 2.0) * (P + 1.0) / (3.0 * P)))
        families.append(_family(f"hp_anchors[{tag}]", 2, anchor, 1e-12))
        ident = abs(lower_bound_M(pp)
                    - (1.0 / (3.0 * p) + p / 3.0 + hankel.g_poly(1.0 / P)))
        families.append(_family(f"lower_bound_identity[{tag}]", 1, ident, 1e-10))
        sandwich = max(lower_bound_M(pp) - upper_bound_M(pp), 0.0)
        families.append(_family(f"bound_sandwich[{tag}]", 1, sandwich, 0.0))

        # triple path: sigma chain vs w chain vs series route
        n_triple = min(n_random, 2000)
        Wt = W[:n_triple]
        h_w = np.array([
            hankel2(a_from_c(pp, c_from_w(pp, ParamTriple(*map(complex, w))))) for w in Wt
        ])
        h_s = np.array([
            hankel_from_sigma(pp, sigma_from_w(pp, ParamTriple(*map(complex, w)))) for w in Wt
        ])
        A = a_batch_from_w(pp, Wt)
        h_ser = A[:, 0] * A[:, 2] - A[:, 1] ** 2
        worst = float(max(np.max(np.abs(h_w - h_s)), np.max(np.abs(h_w - h_ser))))
        families.append(_family(f"triple_path_agreement[{tag}]", n_triple, worst, 1e-8))

        # reconstructed f' series vs direct sampling of the evaluator form
        worst = 0.0
        n_fprime = min(n_random, 50)
        for w in W[:n_fprime]:
            wt = ParamTriple(*map(complex, w))
            ph = phi_series_from_w(pp, wt, DEFAULT_ORDER + 1)
            fp = fprime_series(pp, ph)
            ev = phi_evaluator(pp, wt)

            nodes, weights = np.polynomial.legendre.leggauss(32)
            nodes = 0.5 * (nodes + 1.0)  # map to [0,1]
            weights = 0.5 * weights

            def fprime_eval(z, _ev=ev):
                # Gauss-Legendre on the segment [0, z]; spectrally accurate
                zz = np.atleast_1d(z)
                pts = zz[:, None] * nodes[None, :]
                vals = _ev(pts)
                integ = -2.0 * vals / (1.0 - pts * vals)
                integral = (integ @ weights) * zz
                pref = p**2 / ((zz - p) ** 2 * (1.0 - p * zz) ** 2)
                return pref * np.exp(integral)

            sampled = taylor_from_samples(fprime_eval, p / 2, 5, 512)
            worst = max(worst, float(np.max(np.abs(sampled.coeffs - fp.coeffs[:5]))))
        families.append(_family(f"fprime_series_vs_sampling[{tag}]", n_fprime, worst, 1e-7))

    report = {
        "p_values": [float(p) for p in p_values],
        "seed": int(seed),
        "n_random": int(n_random),
        "families": families,
        "pass": all(f["pass"] for f in families),
    }
    return report
