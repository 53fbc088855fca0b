import hashlib
import tracemalloc

import numpy as np
import pytest

from hankelbody import (PoleParam, a_from_c, c_from_sigma, estimate_M, hankel2,
                        hankel_from_sigma, lower_bound_M, omega_contains,
                        omega_map, sample_omega_boundary, sample_region_H,
                        upper_bound_M)
from hankelbody.errors import InvalidInput
from hankelbody.kernels import (_phi_terms, best_sigma2, phi_batch, phi_factors,
                                phi_sigma2_max)
from hankelbody.hankel import phi_p
from hankelbody import search
from hankelbody.search import (_FATOL, _XATOL, REGION_BINS, _binned_boundary,
                               _negative_modulus, _polydisk_blocks, minimize,
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
        s0, s1, s2 = _pinned_points()
        P = PoleParam(p).P
        smax, batch = PINNED_KERNEL_DIGESTS[p]
        assert _sha256(phi_sigma2_max(P, s0, s1)) == smax
        assert _sha256(phi_batch(P, s0, s1, s2)) == batch

    def test_per_point_factors_match_the_float_P_path(self):
        # one array of points, each with the factors of its own p, as the
        # lockstep refinement passes them
        ps = sorted(PINNED_KERNEL_DIGESTS)
        S = _pinned_points()
        s0, s1, s2 = np.tile(S, len(ps))
        F = np.repeat(np.array([phi_factors(PoleParam(p).P) for p in ps]).T,
                      S.shape[1], axis=1)
        smax, batch = (list(col) for col in zip(*map(PINNED_KERNEL_DIGESTS.get, ps)))

        def digests(values):
            return [_sha256(part) for part in np.split(values, len(ps))]

        assert digests(phi_sigma2_max(F, s0, s1)) == smax
        assert digests(phi_batch(F, s0, s1, s2)) == batch
        assert digests(phi_sigma2_max(tuple(F), s0, s1)) == smax


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
        r1 = estimate_M(pp05, grid=12, refine_iters=50)
        r2 = estimate_M(pp05, grid=12, refine_iters=50)
        assert r1 == r2

    def test_refinement_monotone(self, pp05):
        coarse = estimate_M(pp05, grid=12, refine_iters=0)
        fine = estimate_M(pp05, grid=12, refine_iters=100)
        assert fine.m_estimate >= coarse.m_estimate - 1e-12

    def test_maximizer_reported_value_consistent(self):
        for p, grid, iters in ((0.5, 16, 100), (0.5, 8, 0), (0.9, 24, 200), (0.1, 8, 30)):
            pp = PoleParam(p)
            rep = estimate_M(pp, grid=grid, refine_iters=iters)
            s0, s1, s2 = rep.arg_sigma
            P = pp.P
            sup = phi_sigma2_max(P, np.array([s0]), np.array([s1]))[0]
            assert rep.m_estimate == sup / (18.0 * P**3)
            assert s2 == best_sigma2(P, s0, s1)
            direct = abs(hankel_from_sigma(pp, rep.arg_sigma))
            assert direct == pytest.approx(rep.m_estimate, abs=1e-9)

    @pytest.mark.parametrize("grid, iters", [(8, 0), (8, 1), (8, 30), (24, 0)])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.62, 0.9])
    def test_coarse_search_reaches_the_slice_maximum(self, p, grid, iters):
        rep = estimate_M(PoleParam(p), grid=grid, refine_iters=iters)
        assert rep.m_estimate >= slice_max_on_grid(p) - 1e-13

    def test_input_validation(self, pp05):
        with pytest.raises(InvalidInput):
            estimate_M(pp05, grid=4)
        with pytest.raises(InvalidInput):
            estimate_M(pp05, refine_iters=-1)

    def test_batch_needs_a_p(self):
        with pytest.raises(InvalidInput):
            search.estimate_M_batch([], 24, 200, 1)


#: (p, grid, refine_iters, seed, m_estimate.hex(), iterations, arg_sigma as
#: (real.hex(), imag.hex()) pairs): reports pinned bit for bit, so that a
#: faster search cannot change an answer unnoticed; iters 0 and 1 included
PINNED_REPORTS = [
    (0.5, 24, 200, 1, "0x1.0b80098c099c9p+0", 3857,
     (("0x1.9a0ec65bf24ddp-1", "0x1.4249c120cf92cp-33"),
      ("-0x1.0000000000000p+0", "-0x1.9549b9676733bp-35"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.1, 8, 0, 1, "0x1.af7b6f01f1dacp+1", 0,
     (("0x1.72ade3fd33dc0p-3", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.9, 24, 200, 77, "0x1.0001e73218531p+0", 1550,
     (("0x1.fd50d131bb2e6p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.62, 8, 30, 5, "0x1.02de5902fed95p+0", 630,
     (("0x1.cbf04a23fe8cep-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.33, 9, 1, 3, "0x1.3b81456c1bd3ep+0", 21,
     (("0x1.2bc4ea4837cb0p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.75, 13, 5, 2, "0x1.006675433af26p+0", 105,
     (("0x1.ec5ec6040e444p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.02, 24, 0, 4, "0x1.0abd420e437e3p+4", 0,
     (("0x1.2118b28413000p-5", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.98, 16, 60, 11, "0x1.000000a96cb27p+0", 1156,
     (("0x1.ffe6a989c0b6ap-1", "0x1.9f1ecd51a9013p-29"),
      ("-0x1.fffffffffffecp-1", "-0x1.1d4da0d72cecbp-24"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    # p where numpy's array power P**4 differs in the last bit from Python's
    (0.23, 24, 200, 1, "0x1.94b1d3be3eea9p+0", 3794,
     (("0x1.ad657b87562cdp-2", "0x1.5b69f18e75000p-26"),
      ("-0x1.ffffffffffffcp-1", "-0x1.0a4083ae59d9cp-25"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.27, 12, 40, 6, "0x1.66c26c231741dp+0", 840,
     (("0x1.f44efa259e750p-2", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.97, 24, 200, 3, "0x1.0000036b3493dp+0", 1497,
     (("0x1.ffc6697de357ep-1", "0x1.44e9948b2abf2p-28"),
      ("-0x1.fffffffffff87p-1", "0x1.5ff741246987dp-23"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.23, 8, 0, 2, "0x1.94b1d3be3eea6p+0", 0,
     (("0x1.ad657b9efa818p-2", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
    (0.97, 10, 1, 8, "0x1.0000036b3493cp+0", 21,
     (("0x1.ffc6699267348p-1", "0x0.0p+0"),
      ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"),
      ("0x1.0000000000000p+0", "0x0.0p+0"))),
]


@pytest.mark.parametrize("p, grid, iters, seed, m_hex, iterations, sigma_hex", PINNED_REPORTS)
def test_reports_are_pinned(p, grid, iters, seed, m_hex, iterations, sigma_hex):
    rep = estimate_M(PoleParam(p), grid=grid, refine_iters=iters, seed=seed)
    assert rep.m_estimate.hex() == m_hex
    assert rep.iterations == iterations
    assert tuple((s.real.hex(), s.imag.hex()) for s in rep.arg_sigma) == sigma_hex


@pytest.mark.parametrize("p, grid, ties", [(0.9, 24, 169), (0.5, 8, 57)])
def test_grid_starts_match_the_full_sort(p, grid, ties):
    # grids where many values tie with the GRID_STARTS-th largest, so the
    # cut keeps far more candidates than starts and the tie-break decides
    P = PoleParam(p).P
    pts = search._polar_grid(grid)
    vals = phi_sigma2_max(P, pts[:, None], pts[None, :]).ravel()
    s0, s1 = np.repeat(pts, pts.size), np.tile(pts, pts.size)
    best = np.lexsort((s1.imag, s1.real, s0.imag, s0.real, -vals))[:search.GRID_STARTS]
    assert np.count_nonzero(vals == vals[best[-1]]) == ties
    g0, g1 = search._grid_starts(P, grid)
    assert g0.tobytes() == s0[best].tobytes()
    assert g1.tobytes() == s1[best].tobytes()


def _starts(rng, p):
    """Refinement starts: random rows with moduli up to 1.3 (the clamp), rows
    with exact zeros (the zdelt step of the first simplex), and the slice start."""
    X = rng.uniform(-1.0, 1.0, size=(12, 4)) * [1.3, 7.0, 1.3, 7.0]
    X[:, 0::2] = np.abs(X[:, 0::2])
    X[0] = 0.0
    X[1, [1, 3]] = 0.0
    X[2, [0, 2]] = 0.0
    X[3, :3] = [1.0, 0.0, 1.0]
    return np.vstack([X, [p, 0.0, 1.0, np.pi]])


class TestSimplex:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.95])
    @pytest.mark.parametrize("maxiter", [1, 2, 30, 200])
    def test_lockstep_run_is_scipy_nelder_mead_start_by_start(self, p, maxiter):
        optimize = pytest.importorskip("scipy.optimize")
        P = PoleParam(p).P

        def scalar_fun(x):
            # one point at a time, sigma2 in closed form
            sig = [min(max(x[2 * k], 0.0), 1.0) * np.exp(1j * x[2 * k + 1]) for k in range(2)]
            return -phi_sigma2_max(P, *(np.array([complex(v)]) for v in sig))[0]

        X0 = _starts(np.random.default_rng(int(100 * p)), p)
        got = minimize(lambda A, X: _negative_modulus(P, X), X0, maxiter,
                       np.empty((0, len(X0))))
        for i, x0 in enumerate(X0):
            want = optimize.minimize(scalar_fun, x0, method="Nelder-Mead",
                                     options={"maxiter": maxiter, "xatol": _XATOL,
                                              "fatol": _FATOL})
            assert got.x[i].tobytes() == want.x.tobytes(), i
            assert got.fun[i].tobytes() == np.float64(want.fun).tobytes(), i
            assert (got.nit[i], got.nfev[i]) == (want.nit, want.nfev), i

    @pytest.mark.parametrize("maxiter", [1, 2, 30, 200])
    def test_one_lockstep_run_over_several_p_is_scipy_start_by_start(self, maxiter):
        # the starts of three p in one run, each start with the factors of
        # its own P, against scipy's run of that start alone at that p
        optimize = pytest.importorskip("scipy.optimize")
        ps = (0.1, 0.23, 0.97)
        X0 = np.vstack([_starts(np.random.default_rng(int(100 * p)), p) for p in ps])
        P_of = np.repeat([PoleParam(p).P for p in ps], len(X0) // len(ps))
        A = np.array([phi_factors(P) for P in P_of]).T
        got = minimize(_negative_modulus, X0, maxiter, A)
        for i, (x0, P) in enumerate(zip(X0, P_of)):
            want = optimize.minimize(lambda x: _negative_modulus(P, x[None])[0], x0,
                                     method="Nelder-Mead",
                                     options={"maxiter": maxiter, "xatol": _XATOL,
                                              "fatol": _FATOL})
            assert got.x[i].tobytes() == want.x.tobytes(), i
            assert got.fun[i].tobytes() == np.float64(want.fun).tobytes(), i
            assert (got.nit[i], got.nfev[i]) == (want.nit, want.nfev), i

    def test_objective_calls_are_batched(self):
        # one call on the first simplices, then exactly one call per step on
        # 4 trial points and N shrunk vertices per live start; nfev keeps
        # scipy's count of 1 or 2 per step
        sizes = []

        def fun(A, X):
            sizes.append(len(X))
            return np.sum((X - 0.3) ** 2, axis=1)

        res = minimize(fun, np.zeros((5, 6)), 50, np.empty((0, 5)))
        assert np.all(res.nit == 50)
        assert sizes == [5 * 7] + [(4 + 6) * 5] * 49
        assert len(sizes) == 1 + 49
        assert np.all((7 + 49 <= res.nfev) & (res.nfev <= 7 + 2 * 49))

    def test_shrinking_and_converged_starts_are_counted(self):
        # a flat objective shrinks every simplex at every step until it is
        # within _XATOL; larger starts take larger first simplices, so the
        # starts converge at different steps
        sizes = []

        def flat(A, X):
            sizes.append(len(X))
            return np.zeros(len(X))

        N = 4
        res = minimize(flat, np.outer([0.0, 1.0, 30.0], np.ones(N)), 200, np.empty((0, 3)))
        steps = res.nit - 1
        assert list(res.nit) == [29, 37, 42]  # as scipy's Nelder-Mead ends each start
        assert sizes == [3 * (N + 1)] + [(4 + N) * np.count_nonzero(steps > s)
                                         for s in range(steps.max())]
        assert len(sizes) == 1 + steps.max()
        assert np.array_equal(res.nfev, N + 1 + steps * (2 + N))


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
        assert reg.boundary.dtype == np.complex128 and reg.boundary.ndim == 1
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


class TestBinnedBoundary:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds_match_the_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        pts = rng.normal(size=n) + 1j * rng.normal(size=n) * rng.uniform(0.1, 3.0)
        assert _binned_boundary(pts).tobytes() == _lexsort_boundary(pts).tobytes()

    def test_sampled_regions_match_the_sort(self):
        for p in (0.13, 0.5, 0.87):
            pts = sample_region_H(PoleParam(p), 3000, seed=7).points
            assert _binned_boundary(pts).tobytes() == _lexsort_boundary(pts).tobytes()

    # numpy's |.| of both is exactly 6890, and both lie in bin 0
    TIE_A, TIE_B = 6890.0 + 0j, 6888.0 + 166.0j

    def test_tie_points_are_a_tie(self):
        assert np.ptp(np.abs(np.array([self.TIE_A, self.TIE_B]))) == 0

    # each cloud lists a point next to its negative, so its centroid is exactly 0
    @pytest.mark.parametrize("pts", [
        # duplicates, one with a -0.0: the first index wins (bin 0 comes first)
        [1.0 + 0j, -1.0, complex(1.0, -0.0), -1.0, 1j, -1j],
        # equal distance at two points of one bin: the first index wins
        [TIE_A, -TIE_A, TIE_B, -TIE_B, 9j, -9j],
        [TIE_B, -TIE_B, TIE_A, -TIE_A, 9j, -9j],
        # four occupied bins of 256, all others empty
        [2.0, -2.0, 2j, -2j, 1.0, -1.0, 1j, -1j],
        # clouds that fall in a single bin
        [0.3 - 0.2j],
        [0.5j, 0.5j, 0.5j],
    ], ids=["duplicates", "tie-a-first", "tie-b-first", "empty-bins", "one-point",
            "all-equal"])
    def test_ties_and_sparse_bins_match_the_sort(self, pts):
        pts = np.array(pts, dtype=np.complex128)
        assert pts.mean() == 0 or np.unique(pts).size == 1
        got = _binned_boundary(pts)
        assert got.tobytes() == _lexsort_boundary(pts).tobytes()
        assert got[:1].tobytes() == pts[:1].tobytes()
        assert got[0] == got[-1]


class TestRegionChunks:
    # 50 samples give 50 + 12 + 12 rows: chunks of 7 straddle both block seams
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("n", [50, 1000])
    def test_chunked_cloud_matches_the_default(self, n, chunk, monkeypatch):
        pp = PoleParam(0.61)
        default = sample_region_H(pp, n, seed=4)
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        chunked = sample_region_H(pp, n, seed=4)
        assert chunked.points.tobytes() == default.points.tobytes()
        assert chunked.boundary.tobytes() == default.boundary.tobytes()

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

    # the values and the binned boundary's temporaries hold about 9.8 MB; a
    # whole (n, 3) complex parameter array would add 4.8 MB
    def test_peak_memory_is_bounded(self):
        tracemalloc.start()
        try:
            sample_region_H(PoleParam(0.5), 100_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11e6


class TestPolydiskBlocks:
    @pytest.mark.parametrize("block", [1, 7, search.REGION_CHUNK])
    @pytest.mark.parametrize("n", [0, 1, 7, 8191, 8192, 8193, 3 * 8192 + 5])
    def test_blocks_are_the_whole_draw(self, n, block):
        whole_rng, block_rng = np.random.default_rng(n), np.random.default_rng(n)
        whole = sample_polydisk(whole_rng, n)
        blocks = list(_polydisk_blocks(block_rng, n, block))
        assert len(blocks) == max(-(-n // block), 1)
        assert all(len(b) <= block for b in blocks)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert whole.shape == (n, 3) and whole.dtype == np.complex128
        # the next draw, as the all-boundary slice and verify's later draws take it
        assert block_rng.uniform(size=4).tobytes() == whole_rng.uniform(size=4).tobytes()
