import numpy as np
import pytest

from hankelbody import (DiskRegion, ParamTriple, PoleParam, blaschke_psi,
                        dieudonne2_lhs, dieudonne2_rhs, dieudonne_disk1,
                        mobius_T, pseudo_hyperbolic, rho_coeffs,
                        rho_eval, tau_from_w, taylor_from_samples)
from hankelbody.disk import P_MIN
from hankelbody.errors import InvalidInput
from hankelbody.search import sample_polydisk


class TestPoleParam:
    def test_P(self):
        assert PoleParam(0.5).P == pytest.approx(2.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, 1e-100, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidInput):
            PoleParam(bad)

    def test_floor_keeps_powers_of_P_finite(self):
        # the chain raises P = p + 1/p to the fourth power and beyond
        assert np.isfinite(PoleParam(P_MIN).P ** 4)
        with pytest.raises(InvalidInput):
            PoleParam(P_MIN / 2)


class TestMobius:
    def test_swaps_zero_and_a(self):
        a = 0.3 + 0.4j
        assert mobius_T(a, 0.0) == pytest.approx(a)
        assert mobius_T(a, a) == pytest.approx(0.0)

    def test_involution(self, rng):
        for _ in range(20):
            a = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(mobius_T(a, mobius_T(a, z)) - z) < 1e-12

    def test_degenerate_denominator(self):
        with pytest.raises(InvalidInput):
            mobius_T(1.0 + 0j, 1.0 + 0j)

    def test_empty_input_gives_empty_output(self):
        z = np.array([], dtype=np.complex128)
        assert mobius_T(0.5, z).shape == (0,)
        assert pseudo_hyperbolic(z, 0.5).shape == (0,)

    def test_pseudo_hyperbolic_antisymmetry_of_modulus(self, rng):
        z, w = 0.3 + 0.1j, -0.5 + 0.2j
        assert abs(pseudo_hyperbolic(z, w)) == pytest.approx(
            abs(pseudo_hyperbolic(w, z)))

    def test_pseudo_hyperbolic_invariance(self, rng):
        # [T_a z, T_a w] has the same modulus as [z, w]
        a = 0.4 - 0.3j
        z, w = 0.2 + 0.5j, -0.1 - 0.6j
        lhs = abs(pseudo_hyperbolic(mobius_T(a, z), mobius_T(a, w)))
        assert lhs == pytest.approx(abs(pseudo_hyperbolic(z, w)))


class TestRotationConjugate:
    def test_fixes_p(self, pp05):
        for zeta in (1j, -1.0, 0.5 + 0.2j):
            assert rho_eval(pp05, zeta, pp05.p) == pytest.approx(pp05.p)

    def test_zeta_one_is_identity(self, pp05):
        zs = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(rho_eval(pp05, 1.0, zs), zs)

    def test_coeffs_match_sampling(self, pp05, rng):
        for _ in range(10):
            zeta = complex(np.sqrt(rng.uniform())
                           * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            closed = np.asarray(rho_coeffs(pp05, zeta, 6))
            sampled = taylor_from_samples(lambda z: rho_eval(pp05, zeta, z),
                                          0.25, 6, 256)
            assert np.max(np.abs(closed - sampled)) < 1e-10


class TestVariabilityDisks:
    def test_first_order_schwarz_case(self):
        # tau0 = 0 forces |psi'(z0)| <= |z0|... actually disk center 0
        disk = dieudonne_disk1(0.5, 0.0)
        assert disk.center == pytest.approx(0.0)
        assert disk.radius == pytest.approx(0.25 / (0.5 * 0.75))

    def test_first_order_rigidity(self):
        # |tau0| = |z0| pins psi'(z0) to the single point tau0/z0
        disk = dieudonne_disk1(0.5, 0.5j)
        assert disk.radius == pytest.approx(0.0)
        assert disk.center == pytest.approx(1j)

    def test_square_map_attains_second_order_equality(self):
        # psi(z) = z^2 at z0 = 0.5: tau = (0.25, 1, 1), both sides 2/3
        lhs = dieudonne2_lhs(0.5, 0.25, 1.0, 1.0)
        rhs = dieudonne2_rhs(0.5, 0.25)
        assert lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rhs == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_constructed_jets_satisfy_both_orders(self, pp05, rng):
        p = pp05.p
        for w in 0.98 * sample_polydisk(rng, 40):
            psi = blaschke_psi(pp05, *w)
            tau0, tau1, tau2 = taylor_from_samples(lambda z: psi(p + z), 0.15, 3, 128)
            disk = dieudonne_disk1(p, complex(tau0))
            assert abs(tau1 - disk.center) <= disk.radius + 1e-8
            lhs = dieudonne2_lhs(p, complex(tau0), complex(tau1), complex(tau2))
            assert lhs <= dieudonne2_rhs(p, complex(tau0)) + 1e-8

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            dieudonne_disk1(1.5, 0.1)
        with pytest.raises(InvalidInput):
            dieudonne2_rhs(0.5, 0.6)


class TestBlaschkePsi:
    def test_fixes_origin_and_hits_p_w0(self, pp05, rng):
        p = pp05.p
        for w in sample_polydisk(rng, 25):
            psi = blaschke_psi(pp05, *w)
            assert abs(psi(np.array([1e-30]))[0]) < 1e-25
            assert abs(psi(np.array([p]))[0] - p * w[0]) < 1e-12

    def test_self_map(self, pp05, rng):
        zs = 0.999 * np.sqrt(rng.uniform(size=200)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 200))
        for w in sample_polydisk(rng, 10):
            psi = blaschke_psi(pp05, *w)
            assert np.max(np.abs(psi(zs))) <= 1.0 + 1e-12


class TestRationalForm:
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95, 0.99])
    def test_psi_jet_matches_closed_form_and_sampling(self, p, rng):
        # psi's jet at p is the closed form tau_from_w; Cauchy sampling of
        # the pointwise chain shares nothing with it
        pp = PoleParam(p)
        W = 0.99 * sample_polydisk(rng, 200)
        tau = np.column_stack(tau_from_w(pp, ParamTriple(*W.T)))
        psi = blaschke_psi(pp, *W.T[..., None])
        sampled = taylor_from_samples(lambda z: psi(p + z),
                                      min(0.4 * (1 - p), 0.2), 3, 128)
        # relative to the jet's size, which grows like 1/(1-p^2)^2
        scale = np.maximum(1.0, np.abs(tau))
        assert np.max(np.abs(tau - sampled) / scale) <= 1e-12


class TestDiskRegion:
    def test_contains(self):
        d = DiskRegion(1.0 + 0j, 0.5)
        assert d.contains(1.2)
        assert not d.contains(2.0)
        assert d.contains(1.5)  # boundary

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidInput):
            DiskRegion(0.0, -0.1)
