import numpy as np
import pytest

from hankelbody import (H_F, A_n, B_coeffs, G_p, ParamTriple, PoleParam,
                        a_from_c, aw_disk, c_from_sigma, c_from_w, g_poly, h_p,
                        h_p_prime, hankel2, hankel_from_c, hankel_from_sigma,
                        lower_bound_M, omega_contains, omega_map, phi_p,
                        sigma_from_w, upper_bound_M)
from hankelbody.errors import InvalidInput
from hankelbody.hankel import G_POLY_COEFFS, koebe
from hankelbody.search import sample_polydisk

from conftest import paper_B, source_mutants, triples


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


#: p from the small end of the range to within 1e-6 of 1
OMEGA_PS = (0.001, 0.01, 0.1, 0.3, 0.5, 0.6, 0.8, 0.9, 0.99, 0.999, 0.99999, 0.999999)


def root_verdict(pp, w):
    """"inside" iff w = omega_map(z) for a z in the closed disk: the smaller
    root of z^2 + (P^2 - 2) z + 1 + P^2 w has |z| <= 1 (the other has
    |z| >= P^2 - 3 > 1)."""
    b, c = pp.P**2 - 2.0, 1.0 + pp.P**2 * w
    larger = -(b + np.sqrt(b * b - 4.0 * c + 0j)) / 2.0  # b > 0, Re sqrt >= 0: no cancellation
    return np.where(np.abs(c / larger) <= 1.0, "inside", "outside")


def omega_misreads(contains_fn, pp, rng, n=100_000):
    """Exact boundary points ``omega_map(e^(i theta))`` not read "boundary",
    plus points off the band read otherwise than ``root_verdict``: half of
    them area-uniform in |w| <= 1.1, half boundary points moved by a relative
    normal 1e-7; and the count of points in the band."""
    wb = omega_map(pp, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
    w = np.concatenate([1.1 * np.sqrt(rng.uniform(size=n // 2))
                        * np.exp(2j * np.pi * rng.uniform(size=n // 2)),
                        wb[:n // 2] * (1.0 + 1e-7 * rng.standard_normal(n // 2))])
    got = contains_fn(pp, w)
    off = got != "boundary"
    misread = np.count_nonzero(contains_fn(pp, wb) != "boundary")
    return misread + np.count_nonzero(got[off] != root_verdict(pp, w[off])), np.count_nonzero(~off)


class TestOmegaContains:
    @pytest.mark.parametrize("p", OMEGA_PS)
    def test_exact_on_and_off_the_boundary(self, p):
        misread, in_band = omega_misreads(omega_contains, PoleParam(p), np.random.default_rng(17))
        assert misread == 0 and in_band <= 100  # of the 10^5 points not on the curve

    @pytest.mark.parametrize("p", [p for p in OMEGA_PS if p <= 0.99])
    def test_a_radial_move_of_1e_9_leaves_the_band(self, p):
        # at p >= 0.999 the gradient of F vanishes near the dimple w = 1 - s,
        # and up to about 0.1% of such moves stay in the band
        pp = PoleParam(p)
        wb = omega_map(pp, np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 100_000)))
        assert np.all(omega_contains(pp, wb * (1.0 + 1e-9)) == "outside")
        assert np.all(omega_contains(pp, wb * (1.0 - 1e-9)) == "inside")

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.55, 0.8])
    def test_convex_iff_p_at_most_the_threshold(self, p):
        # the limacon a - b cos(phi), a = 1 - s/2, b = s/2, is convex iff a >= 2b,
        # that is iff p <= p_c = sqrt(2 - sqrt 3)
        pp, p_c = PoleParam(p), np.sqrt(2.0 - np.sqrt(3.0))
        s = 4.0 / pp.P**2
        a, b = 1.0 - s / 2.0, s / 2.0
        # the midpoint of the chord between phi = +-0.3 lies on the positive
        # axis, at a radius of about a - b + 0.3^2 (2b - a)/2: beyond the
        # dimple at a - b = 1 - s above p_c, short of it below
        mid = (a - b * np.cos(0.3)) * np.cos(0.3)
        assert omega_contains(pp, mid) == ("inside" if p < p_c else "outside")
        if p < p_c:  # no chord of boundary points leaves Omega_p
            wb = omega_map(pp, np.exp(2j * np.pi * np.arange(256) / 256))
            midpoints = (wb[:, None] + wb[None, :]) / 2.0
            assert not np.any(omega_contains(pp, midpoints) == "outside")

    def test_the_origin_and_non_finite_points(self, pp05):
        assert omega_contains(pp05, 0.0) == "inside"
        assert omega_contains(pp05, 5e-324) == "inside"
        # |w| overflows, or w is not finite
        for w in (1e308 + 1.7e308j, complex(np.nan, 0.0), complex(1.0, np.inf), -np.inf):
            assert omega_contains(pp05, w) == "outside"
        assert omega_contains(pp05, np.zeros((2, 0, 3))).shape == (2, 0, 3)

    def test_non_finite_points_among_finite_ones(self, pp05):
        # boundary points, the same points moved in and out, and 3, 0 and 1e300i
        wb = omega_map(pp05, np.exp(2j * np.pi * np.arange(20) / 20))
        w = np.concatenate([wb, 0.5 * wb, 1.5 * wb, [3.0, 0.0, 1e300j]])
        bad = [np.nan, np.inf, -np.inf, complex(np.nan, np.nan), complex(0, np.inf),
               complex(np.inf, np.inf), complex(1, np.nan)]
        mixed = np.insert(w, [0, 7, 25, 40, 55, 60, 62], np.array(bad))
        got = omega_contains(pp05, mixed)
        finite = np.isfinite(mixed)
        assert set(got[finite]) == {"inside", "boundary", "outside"}
        assert np.array_equal(got[finite], omega_contains(pp05, w))
        assert set(got[~finite]) == {"outside"} and np.count_nonzero(~finite) == len(bad)
        assert np.array_equal(omega_contains(pp05, mixed.reshape(2, -1)), got.reshape(2, -1))

    def test_each_edit_of_the_inequality_is_caught(self, pp05):
        assert omega_misreads(omega_contains, pp05, np.random.default_rng(3), 20_000)[0] == 0
        mutants = (("first s/2 -> s/3", "(1.0 - 0.5 * s)", "(1.0 - s / 3.0)"),
                   ("second s/2 -> s/3", "0.5 * s * cos", "s / 3.0 * cos"),
                   ("Re w sign", "- 0.5 * s * cos", "+ 0.5 * s * cos"),
                   ("no band", "np.abs(f) <= OMEGA_BAND", "np.abs(f) <= 0.0"))
        undetected = [label for label, bad in source_mutants(omega_contains, mutants)
                      if omega_misreads(bad, pp05, np.random.default_rng(3), 20_000)[0] == 0]
        assert undetected == []


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

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8, 0.95, 0.999])
    def test_B_coeffs_are_the_paper_closed_form_bit_for_bit(self, p, rng):
        # the seeded values include y whose y**2 and y*y differ in the last bit
        pp = PoleParam(p)
        for y in np.concatenate([np.linspace(0.0, 1.0, 101), rng.uniform(0, 1, 2000)]).tolist():
            assert B_coeffs(pp, y) == paper_B(pp.P, y)

    def test_domain_checks(self, pp05):
        with pytest.raises(InvalidInput):
            B_coeffs(pp05, 1.5)
        with pytest.raises(InvalidInput):
            G_p(pp05, -0.1)
        with pytest.raises(InvalidInput):
            A_n(pp05, 0.5, 0)
