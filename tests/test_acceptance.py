"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import time

import numpy as np

from hankelbody import (H_F, A_n, ParamTriple, PoleParam, a_from_c, aw_disk,
                        c_from_w, dieudonne2_lhs, dieudonne2_rhs, estimate_M,
                        g_poly, h_p, h_p_prime, hankel2, lower_bound_M,
                        membership_x2, omega_contains, omega_map,
                        phi_series_from_w, upper_bound_M)
from hankelbody.cli import main as cli_main
from hankelbody.kernels import phi_batch
from hankelbody.oracle import a_batch_from_w
from hankelbody.search import sample_polydisk

from conftest import PHI_FUNCTIONS, literal_mutants, source_mutants, triples

P99 = [k / 100.0 for k in range(1, 100)]


def report(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_bound_sandwich():
    ok = True
    for p in [k / 10.0 for k in range(1, 10)]:
        pp = PoleParam(p)
        m = estimate_M(pp).m_estimate
        ok &= 1.0 < m
        ok &= 1.0 / (3.0 * p) < m <= upper_bound_M(pp) + 1e-6
    report(1, "estimate_M sandwiched between proven bounds", ok)


def test_criterion_2_lower_bound_identity():
    worst = max(
        abs(lower_bound_M(PoleParam(p))
            - (1.0 / (3.0 * p) + p / 3.0 + g_poly(1.0 / PoleParam(p).P)))
        for p in P99
    )
    report(2, f"lower-bound identity, worst residual {worst:.2e}", worst < 1e-10)


def test_criterion_3_hp_anchors():
    worst_v = worst_d = 0.0
    for p in P99:
        pp = PoleParam(p)
        P = pp.P
        worst_v = max(worst_v, abs(h_p(pp, 1.0) - 1.0))
        worst_d = max(worst_d, abs(h_p_prime(pp, 1.0)
                                   + 2.0 * (P - 2.0) * (P + 1.0) / (3.0 * P)))
    eps = 1e-7
    pp = PoleParam(0.5)
    fd = (h_p(pp, 1.0 + eps) - h_p(pp, 1.0 - eps)) / (2.0 * eps)
    ok = worst_v < 1e-12 and worst_d < 1e-12 and abs(fd - h_p_prime(pp, 1.0)) < 1e-6
    report(3, "quartic slice anchors at t=1", ok)


def test_criterion_4_triple_path_agreement():
    t_start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        pp = PoleParam(p)
        P = pp.P
        W = sample_polydisk(rng, 10_000)
        # sigma-chain route via the vectorized polydisk functional
        p2 = p * p
        d = 1.0 - p2 * W[:, 0]
        fac = np.conj(d) / d
        h_sigma = phi_batch(P, (W[:, 0] - p2) / d, fac * W[:, 1],
                            fac * W[:, 2]) / (18.0 * P**3)
        # w-chain route through the coefficient map
        h_w = np.array([
            hankel2(a_from_c(pp, c_from_w(pp, w))) for w in triples(W)
        ])
        # independent series route
        A = a_batch_from_w(pp, W)
        h_ser = A[:, 0] * A[:, 2] - A[:, 1] ** 2
        worst = max(worst, float(np.max(np.abs(h_sigma - h_w))),
                    float(np.max(np.abs(h_w - h_ser))),
                    float(np.max(np.abs(h_sigma - h_ser))))
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-8 and elapsed < 30.0
    report(4, f"triple-path Hankel agreement, worst {worst:.2e}, {elapsed:.1f}s", ok)


def test_criterion_5_rotation_family_closed_form():
    rng = np.random.default_rng(12)
    pp = PoleParam(0.5)
    p = pp.p
    worst = 0.0
    for _ in range(1000):
        zeta = complex(np.sqrt(rng.uniform())
                       * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        a2, a3, a4 = (A_n(pp, zeta, n) for n in (2, 3, 4))
        closed = -(1 - p * p) ** 2 * zeta / (1 - p * p * zeta) ** 2
        worst = max(worst, abs((a2 * a4 - a3 * a3) - closed),
                    abs(H_F(pp, zeta) - closed))
    worst_disk = 0.0
    worst_bdry = 0.0
    for n in (2, 3, 4, 5):
        disk = aw_disk(pp, n)
        for _ in range(250):
            zeta = complex(np.sqrt(rng.uniform())
                           * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            worst_disk = max(worst_disk,
                             abs(A_n(pp, zeta, n) - disk.center) - disk.radius)
        th = rng.uniform(0, 2 * np.pi)
        z = A_n(pp, np.exp(1j * th), n)
        worst_bdry = max(worst_bdry, abs(abs(z - disk.center) - disk.radius))
    ok = worst < 1e-12 and worst_disk < 1e-12 and worst_bdry < 1e-12
    report(5, "rotation-family determinant and coefficient disks", ok)


def test_criterion_6_omega_monotone_and_limits():
    # Omega_p is the inside of the limacon (1 - s/2) - (s/2) cos(phi), and
    # s = 4p^2/(1 + p^2)^2 rises with p (tests/test_exact.py proves the sign
    # of ds/dp), so Omega_p' lies in Omega_p for p < p': no boundary point of
    # Omega_p' reads "outside" Omega_p, and those near w = -1, where every
    # radius is 1, may read "boundary"
    ps = (0.1, 0.3, 0.5, 0.7, 0.9)
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    ok = all(not np.any(omega_contains(PoleParam(a), omega_map(PoleParam(b), z)) == "outside")
             for a in ps for b in ps if a < b)

    def s(p):
        return 4.0 / PoleParam(p).P ** 2

    # the radial gaps to the limits, the cardioid -(1 + z)^2/4 and the circle
    # -z, are (1 - s) sin^2(theta/2) and s sin^2(theta/2): the Hausdorff
    # distances are at most 1 - s and s
    d1, d0 = 1.0 - s(0.95), s(0.05)
    ok = ok and np.max(np.abs(omega_map(PoleParam(0.95), z) + (1.0 + z) ** 2 / 4.0)) <= d1 * (1.0 + 1e-9)
    ok = ok and np.max(np.abs(omega_map(PoleParam(0.05), z) + z)) <= d0 * (1.0 + 1e-9)
    ok = ok and d1 < 0.02 and d0 < 0.02
    report(6, f"region nesting and limit shapes ({d1:.4f}/{d0:.4f})", ok)


def test_criterion_7_membership_round_trip():
    rng = np.random.default_rng(13)
    pp = PoleParam(0.5)
    worst = 0.0
    W = 0.99 * sample_polydisk(rng, 1000)
    for w in triples(W):
        res = membership_x2(pp, c_from_w(pp, w))
        if res.decision != "inside":
            worst = max(worst, 1.0)
        else:
            worst = max(worst, max(abs(a - b) for a, b in zip(res.params, w)))
    # the squaring map at z0 = 0.5 attains second-order equality: both sides 2/3
    lhs = dieudonne2_lhs(0.5, 0.25, 1.0, 1.0)
    rhs = dieudonne2_rhs(0.5, 0.25)
    ok = worst < 1e-9 and abs(lhs - rhs) < 1e-9 and abs(lhs - 2.0 / 3.0) < 1e-9
    report(7, f"coefficient-body round trip, worst {worst:.2e}", ok)


def test_criterion_8_cli_determinism(tmp_path):
    pairs = []
    for tag, argv in (
        ("verify", ["verify", "--p", "0.3,0.6", "--samples", "120", "--seed", "4"]),
        ("extremal", ["extremal", "--p", "0.4", "--grid", "12",
                      "--iters", "60", "--seed", "4"]),
    ):
        outs = []
        for run in (1, 2):
            path = tmp_path / f"{tag}_{run}.json"
            code = cli_main(argv + ["--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        json.loads(outs[0])
        pairs.append(outs[0] == outs[1])
    report(8, "byte-identical JSON across repeated CLI runs", all(pairs))


def _criterion2_residual():
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        pp = PoleParam(p)
        worst = max(worst, abs(lower_bound_M(pp)
                               - (1.0 / (3.0 * p) + p / 3.0
                                  + g_poly(1.0 / pp.P))))
    return worst


def _criterion4_residual(n=150):
    """w-chain H against the scalar (phi_p) and the array (phi_batch) Phi."""
    from hankelbody import hankel_from_sigma, sigma_from_w
    rng = np.random.default_rng(14)
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        pp = PoleParam(p)
        W = triples(sample_polydisk(rng, n))
        h_w = np.array([hankel2(a_from_c(pp, c_from_w(pp, w))) for w in W])
        S = [sigma_from_w(pp, w) for w in W]
        h_s = np.array([hankel_from_sigma(pp, s) for s in S])
        h_b = phi_batch(pp.P, *np.array(S).T) / (18.0 * pp.P**3)
        worst = max(worst, float(np.max(np.abs(h_w - h_s))),
                    float(np.max(np.abs(h_w - h_b))))
    return worst


def test_criterion_9_mutation_sensitivity(monkeypatch):
    import hankelbody.hankel as hk
    import hankelbody.kernels as kn

    assert _criterion2_residual() < 1e-10
    assert _criterion4_residual() < 1e-8

    undetected = []

    orig_hp = hk.hp_numerator_coeffs
    for k in range(5):
        def bad_hp(P, _k=k):
            c = orig_hp(P).copy()
            c[_k] += 1e-3
            return c

        monkeypatch.setattr(hk, "hp_numerator_coeffs", bad_hp)
        if _criterion2_residual() <= 1e-10:
            undetected.append(f"quartic[{k}]")
    monkeypatch.setattr(hk, "hp_numerator_coeffs", orig_hp)

    # every numeric literal of the one transcription of Phi must matter
    n_phi = 0
    for label, bad in literal_mutants(*PHI_FUNCTIONS):
        n_phi += 1
        monkeypatch.setattr(kn, bad.__name__, bad)
        if _criterion4_residual(60) <= 1e-8:
            undetected.append(label)
        monkeypatch.undo()
    assert n_phi == 18

    report(9, f"mutation sensitivity ({n_phi} Phi literals), undetected: "
              f"{undetected or 'none'}", not undetected)


def _omega_residual(n=100, series=phi_series_from_w):
    """phi's series, built by ``series``, against the closed form c_from_w."""
    rng = np.random.default_rng(15)
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        pp = PoleParam(p)
        w = ParamTriple(*sample_polydisk(rng, n).T)
        ser = series(pp, w, 3)
        worst = max(worst, float(np.max(np.abs(ser - np.column_stack(c_from_w(pp, w))))))
    return worst


#: named edits of phi_series_from_w's Schur recursion: (label, source, mutant)
OMEGA_MUTANTS = [
    ("conjugate dropped", "cw = np.conj(wk)", "cw = wk"),
    ("parameters in the order (w0, w1)", "for wk in (w1, w0):", "for wk in (w0, w1):"),
    ("u-shift + n0 dropped", "wk * d1 + n0", "wk * d1"),
    ("conj(w2) as the start", "n0, n1, d1, d2 = w2,", "n0, n1, d1, d2 = np.conj(w2),"),
]


def test_criterion_9_omega_pair_mutation_sensitivity():
    assert _omega_residual() < 1e-10
    # omega's numerator and denominator, the pair behind phi_series_from_w,
    # come from two steps of Schur's recursion: each named edit must matter
    undetected = [label for label, bad in source_mutants(phi_series_from_w, OMEGA_MUTANTS)
                  if _omega_residual(series=bad) <= 1e-10]
    report(9, f"mutation sensitivity ({len(OMEGA_MUTANTS)} omega recursion edits), "
              f"undetected: {undetected or 'none'}", not undetected)
