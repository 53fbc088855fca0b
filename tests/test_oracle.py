import json

import numpy as np
import pytest

from hankelbody import (ParamTriple, PoleParam, TruncatedSeries, a_from_c,
                        a_from_phi, aw_disk, c_from_w, fprime_series, hankel2,
                        phi_series_from_w, verify_all)
from hankelbody.oracle import (_FPRIME_TERMS, _FPRIME_TOL, a_batch_from_w,
                               fprime_aliasing_bound, fprime_quadrature_bound,
                               fprime_sampled, fprime_sampling_sizes)

from conftest import random_polydisk, triples


class TestFPrimeSeries:
    def test_constant_term_is_one(self, pp05, rng):
        for w in triples(random_polydisk(rng, 20)):
            fp = fprime_series(pp05, phi_series_from_w(pp05, w, 8))
            assert abs(fp.coeffs[0] - 1.0) < 1e-10

    def test_zero_phi_gives_prefactor(self, pp05):
        # phi = 0: exponential factor is 1 and f' is the rational prefactor
        from hankelbody.oracle import _prefactor_series
        fp = fprime_series(pp05, TruncatedSeries(np.zeros(7)))
        pre = _prefactor_series(pp05, 6)
        assert np.max(np.abs(fp.coeffs - pre.coeffs)) < 1e-13

    def test_a_from_phi_matches_algebra(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            for w in triples(random_polydisk(rng, 25)):
                a_ser = np.array(a_from_phi(pp, phi_series_from_w(pp, w, 8)))
                a_alg = np.array(a_from_c(pp, c_from_w(pp, w)))
                assert np.max(np.abs(a_ser - a_alg)) < 1e-8


class TestBatchedRoute:
    def test_matches_scalar_route(self, pp05, rng):
        W = random_polydisk(rng, 60)
        batched = a_batch_from_w(pp05, W)
        for k, w in enumerate(triples(W)):
            scalar = np.array(a_from_phi(pp05, phi_series_from_w(pp05, w, 8)))
            assert np.max(np.abs(batched[k] - scalar)) < 1e-10

    def test_hankel_against_algebra(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            W = random_polydisk(rng, 300)
            A = a_batch_from_w(pp, W)
            h_ser = A[:, 0] * A[:, 2] - A[:, 1] ** 2
            h_alg = np.array([
                hankel2(a_from_c(pp, c_from_w(pp, w))) for w in triples(W)
            ])
            assert np.max(np.abs(h_ser - h_alg)) < 1e-8


class TestVerifyAll:
    def test_default_report_passes(self):
        report = verify_all(p_values=(0.3, 0.6), n_random=200, seed=7)
        failed = [f["name"] for f in report["families"] if not f["pass"]]
        assert report["pass"], f"failing families: {failed}"

    def test_report_shape_and_serializable(self):
        report = verify_all(p_values=(0.5,), n_random=50, seed=2)
        json.dumps(report)  # must be JSON-ready
        assert report["p_values"] == [0.5]
        assert report["seed"] == 2
        for fam in report["families"]:
            extra = (["n_samples", "nodes", "aliasing_bound"]
                     if fam["name"].startswith("fprime_series_vs_sampling") else [])
            assert list(fam) == ["name", "samples", "worst_residual",
                                 "tolerance", "pass"] + extra
            assert fam["worst_residual"] >= 0.0 or fam["name"].startswith(
                ("self_map", "dieudonne", "bound_sandwich", "membership"))

    @pytest.mark.parametrize("p", [0.001, 0.01])
    def test_rho_family_passes_at_small_p(self, p):
        report = verify_all(p_values=(p,), n_random=8, seed=1)
        fam, = (f for f in report["families"]
                if f["name"] == f"rho_closed_form_vs_sampling[p={p:g}]")
        assert fam["pass"]
        assert fam["worst_residual"] < 1e-14

    def test_reproducible(self):
        r1 = verify_all(p_values=(0.4,), n_random=60, seed=3)
        r2 = verify_all(p_values=(0.4,), n_random=60, seed=3)
        assert r1 == r2

    def test_detects_injected_drift(self, monkeypatch):
        # a perturbed quartic table must show up as a failing family
        import hankelbody.hankel as hk
        import hankelbody.oracle as oracle
        orig = hk.hp_numerator_coeffs

        def bad(P):
            c = orig(P).copy()
            c[2] += 1e-3
            return c

        monkeypatch.setattr(hk, "hp_numerator_coeffs", bad)
        report = verify_all(p_values=(0.5,), n_random=50, seed=2)
        failed = {f["name"] for f in report["families"] if not f["pass"]}
        assert any(name.startswith("hp_") for name in failed)
        assert not report["pass"]


class TestFPrimeSampling:
    """The evaluator route for f' and the bounds that size its sampling."""

    def test_aliasing_bound_rests_on_the_aw_disk(self):
        # |a_n| <= p^(1-n) / (1-p^2) must cover the exact a_n disk
        for p in (0.05, 0.25, 0.5, 0.95, 0.99):
            for n in range(2, 80):
                disk = aw_disk(PoleParam(p), n)
                assert abs(disk.center) + disk.radius <= p ** (1 - n) / (1 - p * p) * (1 + 1e-12)

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_aliasing_bound_dominates_a_too_coarse_sampling(self, p, rng):
        # at 32 points the family's tolerance fails, and the bound both
        # covers the residual and predicts the failure
        pp = PoleParam(p)
        w = ParamTriple(*random_polydisk(rng, 50).T)
        fp = fprime_series(pp, phi_series_from_w(pp, w, 9)).coeffs[:, :_FPRIME_TERMS]
        worst = np.max(np.abs(fprime_sampled(pp, w, 32, 16).coeffs - fp))
        assert _FPRIME_TOL < worst <= fprime_aliasing_bound(p, 32)

    def test_sizes_are_the_smallest_powers_of_two_within_the_bounds(self):
        tol = _FPRIME_TOL
        for p in (0.01, 0.1, 0.25, 0.5, 0.8, 0.95, 0.999):
            n_samples, nodes = fprime_sampling_sizes(p)
            assert n_samples & (n_samples - 1) == 0 and nodes & (nodes - 1) == 0
            assert n_samples >= 4 * _FPRIME_TERMS
            assert fprime_aliasing_bound(p, n_samples) <= tol / 10
            assert fprime_quadrature_bound(p, nodes) <= tol / 10
            assert n_samples == 32 or fprime_aliasing_bound(p, n_samples // 2) > tol / 10
            assert nodes == 1 or fprime_quadrature_bound(p, nodes // 2) > tol / 10

    def test_family_catches_one_wrong_coefficient(self, monkeypatch):
        import hankelbody.oracle as oracle
        orig = oracle.fprime_series

        def bad(pp, phi):
            # one coefficient of one row off by 1e-6
            c = orig(pp, phi).coeffs.copy()
            c[7, 3] += 1e-6
            return TruncatedSeries(c)

        monkeypatch.setattr(oracle, "fprime_series", bad)
        report = verify_all(p_values=(0.5,), n_random=50, seed=2)
        fam = next(f for f in report["families"]
                   if f["name"] == "fprime_series_vs_sampling[p=0.5]")
        assert not fam["pass"] and fam["worst_residual"] > 9e-7

    def test_verify_all_stays_within_its_evaluation_budget(self, monkeypatch):
        # every phi evaluation of verify_all goes through phi_evaluator
        import hankelbody.coeffbody as coeffbody
        import hankelbody.oracle as oracle
        orig = coeffbody.phi_evaluator
        points = []

        def counting(pp, w):
            ev = orig(pp, w)

            def counted(z):
                out = ev(z)
                points.append(np.size(out))
                return out

            return counted

        monkeypatch.setattr(coeffbody, "phi_evaluator", counting)
        monkeypatch.setattr(oracle, "phi_evaluator", counting)
        report = verify_all(p_values=(0.5,), n_random=300)
        fam = next(f for f in report["families"]
                   if f["name"].startswith("fprime_series_vs_sampling"))
        # three 300-row samplings at 64 points (two phi series and the
        # self-map check), the fixed-point check, the 50-row phi series and
        # the f' sampling; 512 points x 32 nodes for f' made 1,005,100
        assert sum(points) == (300 * (3 * 64 + 1) + 50 * 64
                               + 50 * fam["n_samples"] * fam["nodes"])
        assert sum(points) <= 120_000
