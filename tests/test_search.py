import dataclasses
import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest

from hankelbody import (ExtremalReport, PoleParam, a_from_c, c_from_sigma,
                        estimate_M, hankel2, hankel_from_sigma, lower_bound_M,
                        omega_contains, omega_map, sample_omega_boundary,
                        sample_region_H, upper_bound_M)
from hankelbody.errors import InvalidInput
from hankelbody.kernels import (_phi_terms, best_sigma2, phi_batch, phi_factors,
                                phi_sigma0_terms, phi_sigma2_max)
from hankelbody.hankel import hp_numerator_coeffs, phi_p
from hankelbody import search
from hankelbody.search import (_STEP0, _XATOL, BOUNDARY_RATE, REGION_BINS,
                               _binned_boundary, minimize,
                               sample_polydisk)

from conftest import slice_max_on_grid, triples


class TestKernels:
    def test_batch_matches_scalar_reference(self, rng):
        # independent route: 18 P^3 H through the sigma chain and the
        # coefficient map; it cancels a2 a4 against a3^2, so its rounding
        # is relative to the size of those terms, sample by sample
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            scale = 18.0 * pp.P**3
            S = sample_polydisk(rng, 500)
            got = phi_batch(pp.P, S[:, 0], S[:, 1], S[:, 2])
            A = [a_from_c(pp, c_from_sigma(pp, s)) for s in triples(S)]
            want = np.array([scale * hankel2(a) for a in A])
            size = np.array([scale * (abs(a.a2 * a.a4) + abs(a.a3) ** 2) for a in A])
            assert np.max(np.abs(got - want) / size) < 1e-13

    def test_scalar_phi_p_matches_batch(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            S = sample_polydisk(rng, 500)
            got = phi_batch(pp.P, S[:, 0], S[:, 1], S[:, 2])
            want = np.array([phi_p(pp, s) for s in triples(S)])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_sigma2_max_is_attained(self, rng):
        P = 2.5
        S = sample_polydisk(rng, 200)
        sup = phi_sigma2_max(P, S[:, 0], S[:, 1])
        for k in range(200):
            s0, s1 = complex(S[k, 0]), complex(S[k, 1])
            s2 = best_sigma2(P, s0, s1)
            attained = abs(phi_batch(P, np.array([s0]), np.array([s1]),
                                     np.array([s2]))[0])
            assert attained <= sup[k] + 1e-9
            assert attained >= sup[k] - 1e-8

    def test_best_sigma2_at_a_zero_head(self):
        # at p = 0.5, sigma0 = -1/4 is a root of 1 + (P^2 - 2) s + s^2, so with
        # sigma1 = 0 the head of Phi is exactly 0 and only sigma2's term is left
        P, s0, s1 = 2.5, -0.25, 0.0
        assert _phi_terms(P, complex(s0), complex(s1)) == (0.0, 35.15625)
        s2 = best_sigma2(P, s0, s1)
        assert abs(s2) == 1.0
        assert abs(phi_batch(P, s0, s1, s2)) == phi_sigma2_max(P, s0, s1)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.97])
    def test_sigma2_max_on_the_torus_is_the_head(self, rng, p):
        # at |sigma1| = 1, where the search's maximizer sits, coef is exactly
        # 0, so the sup over sigma2 is |Phi| at any sigma2, bit for bit
        P = PoleParam(p).P
        S = sample_polydisk(rng, 400)
        s1 = np.resize(np.array([1.0, -1.0, 1j, -1j]), 400)
        head, coef = _phi_terms(P, S[:, 0], s1)
        assert np.all(coef == 0.0)
        np.testing.assert_array_equal(phi_sigma2_max(P, S[:, 0], s1),
                                      np.abs(phi_batch(P, S[:, 0], s1, S[:, 2])))

    def test_sigma2_max_dominates_random_sigma2(self, rng):
        P = 4.0
        S = sample_polydisk(rng, 300)
        sup = phi_sigma2_max(P, S[:, 0], S[:, 1])
        vals = np.abs(phi_batch(P, S[:, 0], S[:, 1], S[:, 2]))
        assert np.all(vals <= sup + 1e-9)


def _pinned_points():
    """10**5 fixed polydisk points (s0, s1, s2): eight, the first two on the
    torus, then 10**4 torus rows and interior rows, whose |s1| < 1 keeps C's
    term of Phi."""
    rng = np.random.default_rng(2027)
    points = []
    for n, torus in ((8, 2), (10**5 - 8, 10**4)):
        r = np.sqrt(rng.uniform(size=(3, n)))
        r[:, :torus] = 1.0
        points.append(r * np.exp(2j * np.pi * rng.uniform(size=(3, n))))
    return np.hstack(points)


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


#: p -> sha256 of (phi_sigma2_max, phi_batch) at ``_pinned_points``; the
#: phi_batch bytes predate the split of P's factors out of the kernel.  At
#: these p numpy's array power ``P**4`` differs in the last bit from
#: Python's, so factors formed on an array of P would change these bytes
PINNED_KERNEL_DIGESTS = {
    0.23: ("a0e6ab3088424e1baba776504f11784f94447ae9a5247983b93f3ef95d871d07",
           "c072e05dec4fefc88ed551e2631931f3a02be5c491e2a30452e10c8bff6dcaa3"),
    0.27: ("ef2b33e0c3a2ffb6d69bb4bc28bea379f29a6be548b2634b8eb7c2a88a904514",
           "29a700ac95c01ec39e632193e622b8319aed158619ef850cfc9bc3d853afe867"),
    0.97: ("b4058ed81acd002cd88cf86d40bfc947747caf82636090a70e7e31874b685afd",
           "a92d00373f950c6c81ebc8bab2620f1e3499879319eda4dbee1b81dd22714190"),
}


class TestKernelBytes:
    @pytest.mark.parametrize("p", sorted(PINNED_KERNEL_DIGESTS))
    def test_float_P_bytes_are_pinned(self, p):
        # a numpy float64 P takes the kernels' scalar path too: its P**4 is
        # C's pow, which agrees with Python's where numpy's array power does not
        s0, s1, s2 = _pinned_points()
        smax, batch = PINNED_KERNEL_DIGESTS[p]
        for P in (PoleParam(p).P, np.float64(PoleParam(p).P)):
            assert _sha256(phi_sigma2_max(P, s0, s1)) == smax
            assert _sha256(phi_batch(P, s0, s1, s2)) == batch

    def test_numpy_P_factors_match_the_float_P_path(self):
        # the kernels no longer coerce P to a float, so a numpy float64 P must
        # give the float P's factors bit for bit, P**4 included
        for p in np.linspace(0.0, 1.0, 20_001)[1:-1]:
            P = PoleParam(float(p)).P
            want = phi_factors(P)
            got = phi_factors(np.float64(P))
            assert [np.float64(v).tobytes() for v in got] == \
                [np.float64(v).tobytes() for v in want], p


class TestEstimateM:
    def test_sandwich_p_half(self, pp05):
        rep = estimate_M(pp05)
        assert 1.0 < rep.m_estimate
        assert lower_bound_M(pp05) <= rep.m_estimate + 1e-9
        assert rep.m_estimate <= upper_bound_M(pp05) + 1e-6

    def test_known_value_p_half(self, pp05):
        rep = estimate_M(pp05)
        assert rep.m_estimate == pytest.approx(1.04492, abs=2e-4)

    def test_deterministic(self, pp05):
        assert estimate_M(pp05) == estimate_M(pp05)

    def test_maximizer_reported_value_consistent(self):
        for p in (0.5, 0.9, 0.1):
            pp = PoleParam(p)
            rep = estimate_M(pp)
            s0, s1, s2 = rep.arg_sigma
            P = pp.P
            sup = phi_sigma2_max(P, np.array([s0]), np.array([s1]))[0]
            assert rep.m_estimate == sup / (18.0 * P**3)
            assert s2 == best_sigma2(P, s0, s1)
            direct = abs(hankel_from_sigma(pp, rep.arg_sigma))
            assert direct == pytest.approx(rep.m_estimate, abs=1e-9)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.62, 0.9])
    def test_reaches_the_slice_maximum_on_a_grid(self, p):
        rep = estimate_M(PoleParam(p))
        assert rep.m_estimate >= slice_max_on_grid(p) - 1e-13

    #: 43 p in [0.001, 0.999], dense towards both ends
    ACCURACY_P = (*np.geomspace(0.001, 0.05, 10), *np.linspace(0.06, 0.94, 23),
                  *(1.0 - np.geomspace(0.05, 0.001, 10)))

    @staticmethod
    def _exact_slice_max(pp):
        """(max, argmax) over t in [0, 1] of |h_p(t)| at the float P of
        ``pp``, from mpmath's roots of h_p' at 50 digits: an independent
        route to the slice maximum that ``_slice_argmax`` finds with numpy's
        roots."""
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            P = mp.mpf(pp.P)
            c = hp_numerator_coeffs(P)
            roots = mp.polyroots([k * c[k] for k in range(4, 0, -1)], maxsteps=100, extraprec=100)
            # real parts clipped into [0, 1]: a superset of the critical points there
            ts = [mp.mpf(0), mp.mpf(1), *(min(max(mp.re(r), 0), 1) for r in roots)]
            top, t = max((abs(mp.polyval(c[::-1].tolist(), t)), t) for t in ts)
            return float(top / (18 * P**3)), float(t)

    def test_default_is_the_exact_slice_maximum(self):
        # the report evaluates the slice point (t*, -1) once
        for p in self.ACCURACY_P:
            pp = PoleParam(float(p))
            P = pp.P
            rep, (exact, _) = estimate_M(pp), self._exact_slice_max(pp)
            assert abs(rep.m_estimate - exact) <= 2e-15 * exact, p
            t = search._slice_argmax(P)
            want = phi_sigma2_max(P, np.array([t]), np.array([-1.0]))[0] / (18.0 * P**3)
            assert rep.m_estimate.hex() == want.hex(), p
            assert rep.arg_sigma[:2] == (t, -1.0), p

    @pytest.mark.parametrize("p", ACCURACY_P)
    def test_the_witness_is_the_exact_argmax(self, p):
        # t* against the 50-digit argmax; the worst is about 8e-12, near p = 0.002
        pp = PoleParam(float(p))
        _, t_exact = self._exact_slice_max(pp)
        assert abs(estimate_M(pp).arg_sigma[0] - t_exact) <= 1e-10 * t_exact

    def test_input_validation(self):
        # no grid, no seed and no refinement: the one point is the slice maximum
        assert list(inspect.signature(estimate_M).parameters) == ["pp"]

    def test_report_holds_only_search_results(self):
        # the paper's bounds come from hankel
        names = tuple(f.name for f in dataclasses.fields(ExtremalReport))
        assert names == ("p", "m_estimate", "arg_sigma")


#: p of the float check of the majorant chain, both ends of the range included
CHAIN_P = (0.001, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999)


@pytest.mark.parametrize("p", CHAIN_P)
def test_the_majorant_chain_holds_in_floats(p):
    # README's chain |Phi| <= S <= Q <= max(Q(rho, 1), 18 P^3) <= 18 P^3 M on
    # 10^5 polydisk samples, each link with a one-sided relative slack of
    # 1e-14 for rounding: S is the majorant of the sigma0 terms, Q that of
    # their values at rho = |sigma0|, and M the reported slice maximum
    pp = PoleParam(p)
    P = pp.P
    s0, s1, s2 = sample_polydisk(np.random.default_rng(23), 100_000).T
    r = np.abs(s1)

    def majorant(terms):
        T0, T1, T2, C = map(np.abs, terms)
        return T0 + T1 * r + T2 * (r * r) + C * (1.0 - r * r)

    B = phi_sigma0_terms(P, np.abs(s0).astype(np.complex128))
    top = np.maximum(sum(map(np.abs, B[:3])), 18.0 * P**3)
    chain = (np.abs(phi_batch(P, s0, s1, s2)), majorant(phi_sigma0_terms(P, s0)),
             majorant(B), top, 18.0 * P**3 * estimate_M(pp).m_estimate)
    for k, (lo, hi) in enumerate(zip(chain, chain[1:])):
        assert np.all(lo <= hi * (1.0 + 1e-14)), (p, k)


#: (p, m_estimate.hex(), arg_sigma as (real.hex(), imag.hex()) pairs):
#: reports pinned bit for bit, so that a faster route cannot change an
#: answer unnoticed
PINNED_REPORTS = [
    (0.5, "0x1.0b80098c099c8p+0",
     (("0x1.9a0ec65c48b58p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.1, "0x1.af7b6f01f1dacp+1",
     (("0x1.72ade3fd33dc0p-3", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.9, "0x1.0001e73218531p+0",
     (("0x1.fd50d131bb2e6p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.62, "0x1.02de5902fed95p+0",
     (("0x1.cbf04a23fe8cep-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.33, "0x1.3b81456c1bd3ep+0",
     (("0x1.2bc4ea4837cb0p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.75, "0x1.006675433af26p+0",
     (("0x1.ec5ec6040e444p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.02, "0x1.0abd420e437e3p+4",
     (("0x1.2118b28413000p-5", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.98, "0x1.000000a96cb26p+0",
     (("0x1.ffe6a97e3b096p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    # p where numpy's array power P**4 differs in the last bit from Python's
    (0.23, "0x1.94b1d3be3eea6p+0",
     (("0x1.ad657b9efa818p-2", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.27, "0x1.66c26c231741dp+0",
     (("0x1.f44efa259e750p-2", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.97, "0x1.0000036b3493cp+0",
     (("0x1.ffc6699267348p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
]


@pytest.mark.parametrize("p, m_hex, sigma_hex", PINNED_REPORTS)
def test_reports_are_pinned(p, m_hex, sigma_hex):
    rep = estimate_M(PoleParam(p))
    assert rep.m_estimate.hex() == m_hex
    assert tuple((s.real.hex(), s.imag.hex()) for s in rep.arg_sigma) == sigma_hex


class TestCompassSearch:
    @staticmethod
    def _recording(fun, calls):
        """``fun``, recording a copy of each array it is called on."""
        def recorded(X):
            calls.append(X.copy())
            return fun(X)
        return recorded

    def test_one_call_per_step_on_2N_points_per_live_start(self):
        # a flat objective: every start halves its step at every step and
        # all retire together once it falls below _XATOL
        calls = []
        N, n = 4, 3
        res = minimize(self._recording(lambda X: np.zeros(len(X)), calls), np.zeros((n, N)), 200)
        steps = int(np.ceil(np.log2(_STEP0 / _XATOL)))
        assert [len(X) for X in calls] == [n] + [2 * N * n] * steps
        assert np.all(res.nit == steps)
        assert np.all(res.x == 0.0)

    def test_the_polls_are_the_axes_both_ways_ties_to_the_first(self):
        # every poll point of a start at the origin ties, so it moves to +h e_0
        calls = []
        res = minimize(self._recording(lambda X: -np.sum(X**2, axis=1), calls), np.zeros((1, 3)), 1)
        assert np.array_equal(calls[1], _STEP0 * np.concatenate((np.eye(3), -np.eye(3))))
        assert np.array_equal(res.x, [[_STEP0, 0.0, 0.0]])

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.95])
    def test_no_value_ever_rises(self, p):
        # the run is deterministic, so the run capped at k steps is the
        # state after step k of any longer run
        P = PoleParam(p).P

        def fun(X):
            # -sup over sigma2 of |Phi| at the (modulus, argument) pairs of
            # (sigma0, sigma1), moduli clamped to [0, 1]
            sig = np.clip(X[:, 0::2], 0.0, 1.0) * np.exp(1j * X[:, 1::2])
            return -phi_sigma2_max(P, sig[:, 0], sig[:, 1])

        rng = np.random.default_rng(int(100 * p))
        X0 = rng.uniform(-1.0, 1.0, size=(12, 4)) * [1.3, 7.0, 1.3, 7.0]
        before = fun(X0)
        for k in (1, 2, 5, 30, 200):
            res = minimize(fun, X0, k)
            assert np.all(res.fun <= before), k
            assert np.array_equal(fun(res.x), res.fun), k
            before = res.fun

    def test_a_retired_start_is_no_longer_evaluated(self):
        # the first start slides down a slope at a fixed step and never
        # retires; the second sits where the objective is flat and retires
        calls = []
        N = 4

        def fun(X):
            return np.where(X[:, 1] < 10.0, X.sum(axis=1), 0.0)

        X0 = np.array([np.zeros(N), [0.0, 20.0, 0.0, 0.0]])
        res = minimize(self._recording(fun, calls), X0, 60)
        retired = int(np.ceil(np.log2(_STEP0 / _XATOL)))
        assert list(res.nit) == [60, retired]
        assert [len(X) for X in calls] == [2] + [4 * N] * retired + [2 * N] * (60 - retired)
        assert all(np.all(X[:, 1] < 10.0) for X in calls[1 + retired:])
        assert res.fun[0] == pytest.approx(-60 * _STEP0)

    def test_counts_are_what_ran(self):
        # nfev counts the points each start was evaluated at, its own
        # included, and nit the steps each start took
        calls = []
        N = 4
        res = minimize(self._recording(lambda X: np.sum((X - 0.3) ** 2, axis=1), calls),
                       np.array([np.zeros(N), np.full(N, 0.3), np.full(N, 5.0)]), 200)
        assert len(calls) == 1 + res.nit.max()
        assert sum(len(X) for X in calls) == res.nfev.sum()
        assert np.array_equal(res.nfev, 1 + 2 * N * res.nit)


class TestRegions:
    def test_omega_boundary_closed(self, pp05):
        reg = sample_omega_boundary(pp05, 64)
        assert reg.boundary[0] == reg.boundary[-1]
        assert np.allclose(reg.boundary[:-1], omega_map(pp05, np.exp(
            2j * np.pi * np.arange(64) / 64)))

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_omega_boundary_vertices_read_boundary(self, p):
        # Omega_p is star-shaped about 0, so halving a vertex moves it inside
        # and doubling moves it out
        pp = PoleParam(p)
        reg = sample_omega_boundary(pp, 64)
        assert np.all(omega_contains(pp, reg.boundary) == "boundary")
        assert np.all(omega_contains(pp, 0.5 * reg.points) == "inside")
        assert np.all(omega_contains(pp, 2.0 * reg.points) == "outside")

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_omega_center_and_a_far_point(self, p):
        pp = PoleParam(p)
        # omega_map(0) = -1/P^2 is interior, omega_map(1) on the boundary
        assert complex(omega_map(pp, 0.0)) == pytest.approx(-1.0 / pp.P**2)
        assert omega_contains(pp, omega_map(pp, 0.0)) == "inside"
        assert omega_contains(pp, complex(omega_map(pp, 1.0))) == "boundary"
        assert omega_contains(pp, 100.0 + 0j) == "outside"

    @pytest.mark.parametrize("p", [0.2, 0.8])
    @pytest.mark.parametrize("kind", ["omega", "H"])
    def test_boundaries_are_finite_and_closed(self, kind, p):
        pp = PoleParam(p)
        reg = (sample_omega_boundary(pp, 16) if kind == "omega"
               else sample_region_H(pp, n_samples=200, seed=2))
        # the region writers format these arrays as they are given
        for z in (reg.points, reg.boundary):
            assert z.dtype == np.complex128 and z.ndim == 1 and z.flags.c_contiguous
        if kind == "omega":
            assert np.array_equal(reg.points.view(np.uint64), reg.boundary[:-1].view(np.uint64))
        assert np.all(np.isfinite(reg.boundary)) and np.all(np.isfinite(reg.points))
        assert reg.boundary[0] == reg.boundary[-1]
        assert np.unique(reg.boundary).size >= 3

    @pytest.mark.parametrize("p", [0.13, 0.5, 0.87])
    def test_region_H_boundary_is_drawn_from_its_cloud(self, p):
        reg = sample_region_H(PoleParam(p), n_samples=500, seed=4)
        assert np.all(np.isin(reg.boundary, reg.points))
        # one vertex per occupied angle bin, at most, plus the closing one
        assert len(reg.boundary) <= REGION_BINS + 1
        assert np.unique(reg.boundary[:-1]).size == len(reg.boundary) - 1
        assert reg.meta == {"p": p, "n_samples": 500, "seed": 4}

    def test_sample_sizes_are_checked(self, pp05):
        with pytest.raises(InvalidInput):
            sample_region_H(pp05, n_samples=0)
        with pytest.raises(InvalidInput):
            sample_omega_boundary(pp05, n_theta=15)

    def test_monotone_pairs(self):
        # the boundary of Omega_0.7 lies in Omega_0.3, and not the other way
        inner = sample_omega_boundary(PoleParam(0.7), 128).points
        outer = sample_omega_boundary(PoleParam(0.3), 128).points
        assert not np.any(omega_contains(PoleParam(0.3), inner) == "outside")
        assert np.any(omega_contains(PoleParam(0.7), outer) == "outside")

    def test_region_H_contains_omega_values(self, pp05):
        # the rotation-family slice is included in the sampled cloud
        reg = sample_region_H(pp05, n_samples=400, seed=3)
        target = complex(omega_map(pp05, 1.0))  # sigma0 on the rotation slice
        assert np.min(np.abs(reg.points - target)) < 1e-12

    def test_region_H_deterministic(self, pp05):
        r1 = sample_region_H(pp05, n_samples=200, seed=5)
        r2 = sample_region_H(pp05, n_samples=200, seed=5)
        assert np.array_equal(r1.points, r2.points)
        assert np.array_equal(r1.boundary, r2.boundary)

    def test_limit_shapes(self):
        # the radial gaps to the cardioid -(1 + z)^2/4 and the circle -z are
        # (1 - s) sin^2(theta/2) and s sin^2(theta/2), s = 4/P^2
        th = 2.0 * np.pi * np.arange(512) / 512
        z, sin2 = np.exp(1j * th), np.sin(th / 2.0) ** 2
        for p, limit, gap in ((0.95, -(1.0 + z) ** 2 / 4.0, 1.0 - 4.0 / PoleParam(0.95).P**2),
                              (0.05, -z, 4.0 / PoleParam(0.05).P**2)):
            d = np.abs(sample_omega_boundary(PoleParam(p), 512).points - limit)
            np.testing.assert_allclose(d, gap * sin2, rtol=0, atol=1e-15)
            assert gap < 0.02


def _lexsort_boundary(points, n_bins=REGION_BINS):
    """The farthest point of each angle bin by a two-key sort, as
    ``_binned_boundary`` once picked it; kept as its reference."""
    center = points.mean()
    rel = points - center
    ang = np.mod(np.angle(rel), 2.0 * np.pi)
    bins = np.minimum((ang / (2.0 * np.pi) * n_bins).astype(int), n_bins - 1)
    order = np.lexsort((-np.abs(rel), bins))
    _, first = np.unique(bins[order], return_index=True)
    out = points[order[first]]
    return np.append(out, out[0])


def _random_cloud(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5000))
    return rng.normal(size=n) + 1j * rng.normal(size=n) * rng.uniform(0.1, 3.0)


# numpy's |.| of both is exactly 6890, and both lie in bin 0
_TIE_A, _TIE_B = 6890.0 + 0j, 6888.0 + 166.0j
# each cloud lists a point next to its negative, so its centroid is exactly 0
_SMALL_CLOUDS = {
    # duplicates, one with a -0.0: the first index wins (bin 0 comes first)
    "duplicates": [1.0 + 0j, -1.0, complex(1.0, -0.0), -1.0, 1j, -1j],
    # equal distance at two points of one bin: the first index wins
    "tie-a-first": [_TIE_A, -_TIE_A, _TIE_B, -_TIE_B, 9j, -9j],
    "tie-b-first": [_TIE_B, -_TIE_B, _TIE_A, -_TIE_A, 9j, -9j],
    # four occupied bins of 256, all others empty
    "empty-bins": [2.0, -2.0, 2j, -2j, 1.0, -1.0, 1j, -1j],
    # clouds that fall in a single bin
    "one-point": [0.3 - 0.2j],
    "all-equal": [0.5j, 0.5j, 0.5j],
}


class TestBinnedBoundary:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds_match_the_sort(self, seed):
        pts = _random_cloud(seed)
        assert _binned_boundary(pts).tobytes() == _lexsort_boundary(pts).tobytes()

    def test_sampled_regions_match_the_sort(self):
        for p in (0.13, 0.5, 0.87):
            pts = sample_region_H(PoleParam(p), 3000, seed=7).points
            assert _binned_boundary(pts).tobytes() == _lexsort_boundary(pts).tobytes()

    def test_tie_points_are_a_tie(self):
        assert np.ptp(np.abs(np.array([_TIE_A, _TIE_B]))) == 0

    @pytest.mark.parametrize("pts", _SMALL_CLOUDS.values(), ids=_SMALL_CLOUDS)
    def test_ties_and_sparse_bins_match_the_sort(self, pts):
        pts = np.array(pts, dtype=np.complex128)
        assert pts.mean() == 0 or np.unique(pts).size == 1
        got = _binned_boundary(pts)
        assert got.tobytes() == _lexsort_boundary(pts).tobytes()
        assert got[:1].tobytes() == pts[:1].tobytes()
        assert got[0] == got[-1]

    # chunks of one and two points put a seam between every tie, duplicate
    # and bin's points; seven straddles the random clouds' seams unevenly
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_seams_match_the_sort(self, chunk, monkeypatch):
        clouds = [np.array(pts, dtype=np.complex128) for pts in _SMALL_CLOUDS.values()]
        clouds += [_random_cloud(seed) for seed in range(6)]
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        for pts in clouds:
            assert _binned_boundary(pts).tobytes() == _lexsort_boundary(pts).tobytes()


class TestRegionChunks:
    # 50 samples give 50 + 12 + 12 rows: chunks of 7 straddle both block
    # seams; 20,000 samples at the default chunk give three polydisk draws
    @pytest.mark.parametrize("chunk, n", [(1, 50), (1, 1000), (7, 50), (7, 1000),
                                          (search.REGION_CHUNK, 50),
                                          (search.REGION_CHUNK, search.REGION_CHUNK),
                                          (search.REGION_CHUNK, 20_000)])
    def test_cloud_is_one_polydisk_draw_per_chunk(self, chunk, n, monkeypatch):
        pp, seed = PoleParam(0.61), 4
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        got = sample_region_H(pp, n, seed=seed)
        n_extra = max(n // 4, 8)
        rng = np.random.default_rng(seed)
        polydisk = np.concatenate([sample_polydisk(rng, min(chunk, n - k))
                                   for k in range(0, n, chunk)])
        on_circle = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n_extra, 3)))
        zetas = np.exp(2j * np.pi * np.arange(n_extra) / n_extra)
        rotation = np.zeros((n_extra, 3), dtype=np.complex128)
        rotation[:, 0] = (zetas - pp.p**2) / (1.0 - pp.p**2 * zetas)
        rows = np.concatenate([polydisk, on_circle, rotation])
        scale = 18.0 * pp.P**3
        want = phi_batch(pp.P, *rows.T) / scale
        assert got.points.tobytes() == want.tobytes()
        assert got.boundary.tobytes() == _binned_boundary(want).tobytes()
        if n <= chunk:
            whole = TestSamplePolydisk._reference(np.random.default_rng(seed), n)
            assert got.points[:n].tobytes() == (phi_batch(pp.P, *whole.T) / scale).tobytes()

    # each polydisk chunk takes 9m doubles of the stream, as one whole draw
    # does, so the chunk size moves only the polydisk rows, never the slices
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("n", [50, 1000])
    def test_chunking_moves_only_the_polydisk_rows(self, n, chunk, monkeypatch):
        pp = PoleParam(0.61)
        default = sample_region_H(pp, n, seed=4)
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        chunked = sample_region_H(pp, n, seed=4)
        assert chunked.points.shape == default.points.shape
        assert chunked.points[n:].tobytes() == default.points[n:].tobytes()

    # each of the three blocks is chunked on its own: 70,000 samples give
    # 9 chunks of polydisk rows and 3 each of the two 17,500-row slices
    @pytest.mark.parametrize("n", [1, 1000, 70_000])
    def test_one_kernel_call_per_chunk(self, n, monkeypatch):
        seen = []

        def counted(P, s0, s1, s2):
            seen.append(s0.size)
            return phi_batch(P, s0, s1, s2)

        monkeypatch.setattr(search, "phi_batch", counted)
        sample_region_H(PoleParam(0.3), n)
        n_extra = max(n // 4, 8)
        calls = sum(-(-rows // search.REGION_CHUNK) for rows in (n, n_extra, n_extra))
        assert len(seen) == calls and max(seen) <= search.REGION_CHUNK
        assert sum(seen) == n + 2 * n_extra

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunked_omega_matches_the_default(self, chunk, monkeypatch):
        pp = PoleParam(0.61)
        default = sample_omega_boundary(pp, 50)
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        chunked = sample_omega_boundary(pp, 50)
        assert chunked.boundary.tobytes() == default.boundary.tobytes()
        assert chunked.points.tobytes() == default.points.tobytes()

    @staticmethod
    def _peak(sampler, *args):
        tracemalloc.start()
        try:
            sampler(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the 150,000 values hold 2.4 MB, and one chunk's polydisk rows and
    # phi_batch temporaries about 1.4 MB; first-call allocations of numpy
    # add up to 0.8 MB.  Whole moduli and angles (4.8 MB) or the binned
    # boundary's full-length temporaries (7.3 MB) would break the bound
    def test_peak_memory_is_bounded(self):
        assert self._peak(sample_region_H, PoleParam(0.5), 100_000, 1) <= 5.5e6

    # the closed polyline holds 1.6 MB and one chunk's temporaries about
    # 0.6 MB; a whole e^(i theta) and omega_map's full-length temporaries
    # would add 3.2 MB or more
    def test_omega_peak_memory_is_bounded(self):
        assert self._peak(sample_omega_boundary, PoleParam(0.5), 100_000) <= 2.6e6


class TestSamplePolydisk:
    @pytest.mark.parametrize("n", [0, 1, 7, 8191, 8192, 8193, 3 * 8192 + 5])
    def test_one_draw_is_the_reference(self, n):
        ref_rng, rng = (np.random.default_rng(n) for _ in range(2))
        ref = self._reference(ref_rng, n)
        got = sample_polydisk(rng, n)
        assert got.tobytes() == ref.tobytes()
        assert got.shape == (n, 3) and got.dtype == np.complex128
        # the next draw, as the all-boundary slice and verify's later draws take it
        assert rng.uniform(size=4).tobytes() == ref_rng.uniform(size=4).tobytes()

    # verify draws its parameters through sample_polydisk, so no chunk
    # size may split that draw
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("n", [7, 8193, 3 * 8192 + 5])
    def test_region_chunk_is_not_read(self, n, chunk, monkeypatch):
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        ref = self._reference(np.random.default_rng(n), n)
        assert sample_polydisk(np.random.default_rng(n), n).tobytes() == ref.tobytes()

    @staticmethod
    def _reference(rng, n):
        """The samples as three whole draws in stream order: the moduli, the
        angles and the boundary-rate uniforms."""
        r = np.sqrt(rng.uniform(0.0, 1.0, size=(n, 3)))
        th = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
        r[rng.uniform(size=(n, 3)) < BOUNDARY_RATE] = 1.0
        return r * np.exp(1j * th)

    # a uint32 draw leaves half a 64-bit draw buffered, which float draws
    # keep; MT19937 draws 32 bits natively and buffers none
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                               np.random.MT19937, np.random.Philox,
                                               np.random.SFC64])
    def test_the_stream_and_a_buffered_half_draw_are_kept(self, bit_generator):
        ref_rng, rng = (np.random.Generator(bit_generator(5)) for _ in range(2))
        for g in (ref_rng, rng):
            g.integers(0, 2**32, dtype=np.uint32)
        ref = self._reference(ref_rng, 1000)
        assert sample_polydisk(rng, 1000).tobytes() == ref.tobytes()
        state = rng.bit_generator.state
        np.testing.assert_equal(state, ref_rng.bit_generator.state)
        assert state.get("has_uint32", 1) == 1
