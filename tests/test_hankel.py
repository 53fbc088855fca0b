import numpy as np
import pytest

from hankelbody import (H_F, A_n, B_coeffs, G_p, ParamTriple, PoleParam,
                        a_from_c, aw_disk, c_from_sigma, c_from_w, g_poly, h_p,
                        h_p_prime, hankel2, hankel_from_c, hankel_from_sigma,
                        lower_bound_M, omega_map, phi_p, sigma_from_w,
                        upper_bound_M)
from hankelbody.errors import InvalidInput
from hankelbody.hankel import G_POLY_COEFFS, koebe
from hankelbody.search import sample_polydisk

from conftest import triples


class TestHankelForms:
    def test_hankel2(self):
        from hankelbody.hankel import ACoeffs
        assert hankel2(ACoeffs(1.0, 2.0, 3.0)) == pytest.approx(3.0 - 4.0)

    def test_three_forms_agree(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            for s in triples(sample_polydisk(rng, 150)):
                h1 = hankel2(a_from_c(pp, c_from_sigma(pp, s)))
                h2 = hankel_from_c(pp, c_from_sigma(pp, s))
                h3 = hankel_from_sigma(pp, s)
                scale = max(1.0, abs(h1))
                assert abs(h1 - h2) / scale < 1e-12
                assert abs(h1 - h3) / scale < 1e-12

    def test_w_route_agrees(self, pp05, rng):
        for w in triples(sample_polydisk(rng, 100)):
            hw = hankel2(a_from_c(pp05, c_from_w(pp05, w)))
            hs = hankel_from_sigma(pp05, sigma_from_w(pp05, w))
            assert abs(hw - hs) < 1e-10


class TestRotationFamily:
    def test_HF_is_koebe_pullback(self, pp05, rng):
        p = pp05.p
        for _ in range(50):
            zeta = complex(np.sqrt(rng.uniform())
                           * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            want = -((1 - p * p) ** 2 / (p * p)) * koebe(p * p * zeta)
            assert abs(H_F(pp05, zeta) - want) < 1e-14

    def test_HF_from_coefficients(self, pp05, rng):
        from hankelbody.hankel import ACoeffs
        for _ in range(100):
            zeta = complex(np.sqrt(rng.uniform())
                           * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            a = ACoeffs(A_n(pp05, zeta, 2), A_n(pp05, zeta, 3), A_n(pp05, zeta, 4))
            assert abs(hankel2(a) - H_F(pp05, zeta)) < 1e-12

    def test_An_zeta_zero_is_reciprocal_powers(self, pp05):
        # zeta = 0 gives a_n = p^(1-n)
        for n in range(1, 6):
            assert A_n(pp05, 0.0, n) == pytest.approx(pp05.p ** (1 - n))

    def test_coefficient_disks(self, pp05, rng):
        for n in (2, 3, 4, 5):
            disk = aw_disk(pp05, n)
            for _ in range(100):
                zeta = complex(np.sqrt(rng.uniform())
                               * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                assert disk.contains(A_n(pp05, zeta, n))
            # boundary attainment at unimodular zeta
            th = rng.uniform(0, 2 * np.pi)
            z = A_n(pp05, np.exp(1j * th), n)
            assert abs(abs(z - disk.center) - disk.radius) < 1e-12

    def test_aw_disk_rejects_small_n(self, pp05):
        with pytest.raises(InvalidInput):
            aw_disk(pp05, 1)

    def test_omega_slice_of_phi(self, pp05, rng):
        P = pp05.P
        for _ in range(50):
            s0 = complex(np.sqrt(rng.uniform())
                         * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            direct = phi_p(pp05, ParamTriple(s0, 0.0, 0.0)) / (18.0 * P**3)
            assert abs(direct - omega_map(pp05, s0)) < 1e-13


class TestBoundPolynomials:
    @pytest.mark.parametrize("p", np.linspace(0.05, 0.95, 10))
    def test_hp_matches_phi_slice(self, p, rng):
        pp = PoleParam(p)
        P = pp.P
        for t in rng.uniform(0, 1, 25):
            via_phi = -phi_p(pp, ParamTriple(float(t), -1.0, 0.0)).real / (18 * P**3)
            assert abs(h_p(pp, float(t)) - via_phi) < 1e-11

    def test_hp_anchor_values(self):
        for p in np.linspace(0.01, 0.99, 25):
            pp = PoleParam(p)
            P = pp.P
            assert abs(h_p(pp, 1.0) - 1.0) < 1e-12
            assert abs(h_p_prime(pp, 1.0)
                       + 2.0 * (P - 2.0) * (P + 1.0) / (3.0 * P)) < 1e-12

    def test_hp_prime_is_derivative(self, pp05):
        eps = 1e-6
        for t in (0.2, 0.5, 0.8):
            fd = (h_p(pp05, t + eps) - h_p(pp05, t - eps)) / (2 * eps)
            assert abs(fd - h_p_prime(pp05, t)) < 1e-7

    def test_lower_bound_identity(self):
        for p in np.linspace(0.02, 0.98, 49):
            pp = PoleParam(p)
            want = 1.0 / (3.0 * p) + p / 3.0 + g_poly(1.0 / pp.P)
            assert abs(lower_bound_M(pp) - want) < 1e-10

    def test_g_poly_is_the_horner_loop(self):
        # Horner's rule as a plain loop, the reference: polyval takes the
        # same products and sums, so the bits agree
        def horner(x):
            acc = 0.0
            for c in reversed(G_POLY_COEFFS):
                acc = (acc + c) * x
            return acc

        for x in np.linspace(0.0, 0.5, 2001):  # x = 1/P <= 1/2
            assert g_poly(float(x)) == horner(float(x))

    def test_spot_values_p_half(self):
        pp = PoleParam(0.5)
        assert lower_bound_M(pp) == pytest.approx(1.0345576, abs=5e-7)
        assert upper_bound_M(pp) == pytest.approx(1.2333333, abs=5e-7)

    def test_sandwich_everywhere(self):
        for p in np.linspace(0.02, 0.98, 49):
            pp = PoleParam(p)
            assert 1.0 / (3.0 * p) < lower_bound_M(pp)
            assert lower_bound_M(pp) < upper_bound_M(pp)
            assert upper_bound_M(pp) < 1.0 / (3.0 * p) + 2.0 / 3.0

    def test_B_coeffs_majorized_by_Gp(self, rng):
        # B0+B1+B3 at y = 1-t is bounded by the cubic majorant G_p(t)
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            for t in rng.uniform(0, 1, 50):
                B0, B1, B2, B3 = B_coeffs(pp, 1.0 - float(t))
                assert B0 + B1 + B3 <= G_p(pp, float(t)) + 1e-9

    def test_B_coeffs_sum_bounds_phi(self, pp05, rng):
        # |Phi| at (y e^{i a}, s1, s2) never exceeds B0+B1+B2+B3 at y
        for _ in range(100):
            s = triples(sample_polydisk(rng, 1))[0]
            y = abs(s.x0)
            B0, B1, B2, B3 = B_coeffs(pp05, y)
            assert abs(phi_p(pp05, s)) <= B0 + B1 + B2 + B3 + 1e-9

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_B_coeffs_are_the_moduli_of_phi_terms(self, p):
        # Phi = head + coef*s2, and at real s0 = y the head's s1-dependence
        # is T1*s1 + T2*s1^2: B0..B3 are |head|, |T1|, |T2|, |coef| there
        from hankelbody.kernels import _phi_terms
        pp = PoleParam(p)
        for y in np.linspace(0.0, 1.0, 41):
            s0 = complex(y)
            head0, coef = _phi_terms(pp.P, s0, 0j)
            plus = _phi_terms(pp.P, s0, 1 + 0j)[0] - head0
            minus = _phi_terms(pp.P, s0, -1 + 0j)[0] - head0
            want = (abs(head0), abs(plus - minus) / 2, abs(plus + minus) / 2, abs(coef))
            got = B_coeffs(pp, float(y))
            scale = sum(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * scale

    def test_domain_checks(self, pp05):
        with pytest.raises(InvalidInput):
            B_coeffs(pp05, 1.5)
        with pytest.raises(InvalidInput):
            G_p(pp05, -0.1)
        with pytest.raises(InvalidInput):
            A_n(pp05, 0.5, 0)
