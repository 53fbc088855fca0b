from functools import partial

import numpy as np
import pytest

from hankelbody import (ParamTriple, PoleParam, a_from_c, c_from_sigma,
                        check_omega_monotone, contains, estimate_M, hankel2,
                        hankel_from_sigma, hausdorff_distance, lower_bound_M,
                        omega_map, sample_omega_boundary, sample_region_H,
                        upper_bound_M)
from hankelbody.errors import DegenerateBoundary, InvalidInput
from hankelbody.kernels import best_sigma2, phi_batch, phi_sigma2_max
from hankelbody.hankel import phi_p
from hankelbody.search import (_FATOL, _XATOL, _negative_modulus, minimize,
                               sample_polydisk)

from conftest import triples


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

    def test_sigma2_max_dominates_random_sigma2(self, rng):
        P = 4.0
        S = sample_polydisk(rng, 300)
        sup = phi_sigma2_max(P, S[:, 0], S[:, 1])
        vals = np.abs(phi_batch(P, S[:, 0], S[:, 1], S[:, 2]))
        assert np.all(vals <= sup + 1e-9)


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

    def test_maximizer_reported_value_consistent(self, pp05):
        rep = estimate_M(pp05, grid=16, refine_iters=100)
        direct = abs(hankel_from_sigma(pp05, rep.arg_sigma))
        assert direct == pytest.approx(rep.m_estimate, abs=1e-9)

    def test_input_validation(self, pp05):
        with pytest.raises(InvalidInput):
            estimate_M(pp05, grid=4)
        with pytest.raises(InvalidInput):
            estimate_M(pp05, refine_iters=-1)


def _starts(rng, p):
    """Refinement starts: random rows with moduli up to 1.3 (the clamp), rows
    with exact zeros (the zdelt step of the first simplex), and the slice start."""
    X = rng.uniform(-1.0, 1.0, size=(12, 6)) * [1.3, 7.0, 1.3, 7.0, 1.3, 7.0]
    X[:, 0::2] = np.abs(X[:, 0::2])
    X[0] = 0.0
    X[1, [1, 3, 5]] = 0.0
    X[2, [0, 2]] = 0.0
    X[3, :3] = [1.0, 0.0, 1.0]
    return np.vstack([X, [p, 0.0, 1.0, np.pi, 1.0, 0.0]])


class TestSimplex:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.95])
    @pytest.mark.parametrize("maxiter", [1, 2, 30, 200])
    def test_lockstep_run_is_scipy_nelder_mead_start_by_start(self, p, maxiter):
        optimize = pytest.importorskip("scipy.optimize")
        P = PoleParam(p).P

        def scalar_fun(x):
            # one point at a time, the modulus by the scalar abs
            sig = [min(max(x[2 * k], 0.0), 1.0) * np.exp(1j * x[2 * k + 1]) for k in range(3)]
            return -abs(phi_batch(P, *(np.array([complex(v)]) for v in sig))[0])

        X0 = _starts(np.random.default_rng(int(100 * p)), p)
        got = minimize(partial(_negative_modulus, P), X0, maxiter)
        for i, x0 in enumerate(X0):
            want = optimize.minimize(scalar_fun, x0, method="Nelder-Mead",
                                     options={"maxiter": maxiter, "xatol": _XATOL,
                                              "fatol": _FATOL})
            assert got.x[i].tobytes() == want.x.tobytes(), i
            assert got.fun[i].tobytes() == np.float64(want.fun).tobytes(), i
            assert (got.nit[i], got.nfev[i]) == (want.nit, want.nfev), i

    def test_objective_calls_are_batched(self):
        sizes = []

        def fun(X):
            sizes.append(len(X))
            return np.sum((X - 0.3) ** 2, axis=1)

        res = minimize(fun, np.zeros((5, 6)), 50)
        assert sizes[0] == 5 * 7
        assert len(sizes) <= 1 + 3 * 49
        assert int(res.nfev.sum()) == sum(sizes)
        assert np.all(res.nit == 50)


class TestRegions:
    def test_omega_boundary_closed(self, pp05):
        reg = sample_omega_boundary(pp05, 64)
        assert reg.boundary[0] == reg.boundary[-1]
        assert np.allclose(reg.boundary[:-1], omega_map(pp05, np.exp(
            2j * np.pi * np.arange(64) / 64)))

    def test_contains_omega_center(self, pp05):
        reg = sample_omega_boundary(pp05, 256)
        # omega_map(0) = -1/P^2 is interior
        assert contains(reg, omega_map(pp05, 0.0)) == "inside"
        assert contains(reg, 100.0 + 0j) == "outside"
        assert contains(reg, complex(omega_map(pp05, 1.0))) == "boundary"

    def test_contains_degenerate(self):
        from hankelbody.search import RegionSample
        bad = RegionSample(points=np.array([0j]),
                           boundary=np.array([0j, 0j, 0j]))
        with pytest.raises(DegenerateBoundary):
            contains(bad, 1.0 + 0j)

    def test_monotone_pairs(self):
        assert check_omega_monotone(0.3, 0.7, n_theta=128)
        with pytest.raises(InvalidInput):
            check_omega_monotone(0.7, 0.3)

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
        th = 2.0 * np.pi * np.arange(512) / 512
        near_one = sample_omega_boundary(PoleParam(0.95), 512)
        cardioid = -(1.0 + np.exp(1j * th)) ** 2 / 4.0
        assert hausdorff_distance(near_one.boundary[:-1], cardioid) < 0.02
        near_zero = sample_omega_boundary(PoleParam(0.05), 512)
        circle = -np.exp(1j * th)
        assert hausdorff_distance(near_zero.boundary[:-1], circle) < 0.02

    def test_hausdorff_rejects_an_empty_set(self):
        for a, b in (([], [1.0]), ([1.0], []), ([], [])):
            with pytest.raises(InvalidInput):
                hausdorff_distance(a, b)

    def test_hausdorff_symmetry_and_zero(self):
        a = np.array([0.0, 1.0, 1j])
        assert hausdorff_distance(a, a) == 0.0
        b = a + 0.1
        assert hausdorff_distance(a, b) == pytest.approx(
            hausdorff_distance(b, a))
