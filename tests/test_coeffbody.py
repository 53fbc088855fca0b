import numpy as np
import pytest

from hankelbody import (CoeffTriple, ParamTriple, PoleParam, c_from_sigma,
                        c_from_w, membership_x2, phi_evaluator,
                        phi_series_from_w, sigma_from_w, tau_from_c, tau_from_w,
                        w_from_sigma)
from hankelbody.errors import InvalidInput
from hankelbody.search import sample_polydisk
from hankelbody.series import taylor_from_samples

from conftest import triples


class TestChains:
    def test_w_sigma_round_trip(self, pp05, rng):
        for w in triples(sample_polydisk(rng, 100)):
            back = w_from_sigma(pp05, sigma_from_w(pp05, w))
            assert max(abs(a - b) for a, b in zip(w, back)) < 1e-13

    def test_sigma_map_is_polydisk_bijection(self, pp05, rng):
        for w in triples(sample_polydisk(rng, 100)):
            s = sigma_from_w(pp05, w)
            for a, b in zip(w, s):
                assert abs(abs(a) - abs(b)) < 1e-12 or True  # moduli of x1,x2 preserved
            assert abs(abs(s.x1) - abs(w.x1)) < 1e-12
            assert abs(abs(s.x2) - abs(w.x2)) < 1e-12
            assert abs(s.x0) <= 1 + 1e-12

    def test_c_chains_agree(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            for w in triples(sample_polydisk(rng, 200)):
                cw = c_from_w(pp, w)
                cs = c_from_sigma(pp, sigma_from_w(pp, w))
                assert max(abs(a - b) for a, b in zip(cw, cs)) < 1e-11

    def test_rejects_outside_polydisk(self, pp05):
        with pytest.raises(InvalidInput):
            c_from_w(pp05, ParamTriple(1.5, 0.0, 0.0))
        # moduli up to 1 + 1e-10 are accepted as rounding
        c_from_w(pp05, ParamTriple(0.0, 1.0 + 5e-11, 0.0))
        with pytest.raises(InvalidInput):
            c_from_w(pp05, ParamTriple(0.0, 0.0, 1.0 + 1e-9))

    def test_identity_map_parameters(self, pp05):
        # w = (1, *, *) generates phi = identity: c = (0, 1, 0)
        c = c_from_w(pp05, ParamTriple(1.0, 0.3, -0.2))
        assert abs(c.c0) < 1e-14
        assert abs(c.c1 - 1.0) < 1e-14
        assert abs(c.c2) < 1e-14

    def test_constant_map_parameters(self, pp05):
        # sigma = (1, *, *) corresponds to w0 = 1 too; the other corner
        # sigma0 = -1 gives w0 = -(1-p^2)/(1+p^2) etc.  Spot check c0 range.
        c = c_from_sigma(pp05, ParamTriple(-1.0, 0.0, 0.0))
        assert abs(c.c0 - 2.0 / pp05.P) < 1e-14


class TestAgainstSeriesOracle:
    def test_c_from_w_matches_taylor_sampling(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            for w in triples(sample_polydisk(rng, 30)):
                ser = np.asarray(phi_series_from_w(pp, w, 3))
                cw = np.array(c_from_w(pp, w))
                assert np.max(np.abs(ser - cw)) < 1e-9

    def test_phi_series_is_a_self_map_series(self, rng):
        # |c_k| <= 1 for a self-map; a sampling radius shrinking with p
        # amplified rounding into |c_k| above 3 at p = 0.01 on these rows
        W = sample_polydisk(rng, 2000)
        W[:200] /= np.abs(W[:200])
        w = ParamTriple(*W.T)
        for p in (0.01, 0.05, 0.3, 0.7, 0.95, 0.99):
            pp = PoleParam(p)
            ser = phi_series_from_w(pp, w, 9)
            assert np.max(np.abs(ser)) <= 1.0 + 1e-12
            assert np.max(np.abs(ser[:, :3] - np.column_stack(c_from_w(pp, w)))) <= 1e-13

    def test_long_series_extend_short_ones(self, pp05, rng):
        w = ParamTriple(*sample_polydisk(rng, 20).T)
        long = phi_series_from_w(pp05, w, 40)
        assert np.max(np.abs(long)) <= 1.0 + 1e-12
        assert np.max(np.abs(long[:, :9] - phi_series_from_w(pp05, w, 9))) <= 1e-13

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.7, 0.95, 0.99])
    def test_phi_series_matches_the_sampled_route(self, p, rng):
        pp = PoleParam(p)
        W = sample_polydisk(rng, 200)
        W[:40] /= np.abs(W[:40])
        w = ParamTriple(*W.T)
        ser = phi_series_from_w(pp, w, 40)
        ev = phi_evaluator(pp, ParamTriple(*W.T[..., None]))
        # 64 points on |z| = 1/2, whose rounding grows like 2^k in
        # coefficient k; then 512 points on |z| = 0.9 for all 40 terms,
        # where |c_k| <= 1 bounds the aliasing by 0.9^512 / (1 - 0.9^512)
        old = taylor_from_samples(ev, 0.5, 16, 64)
        assert np.all(np.abs(ser[:, :16] - old) <= 1e-13 * 2.0 ** np.arange(16))
        wide = taylor_from_samples(ev, 0.9, 40, 512)
        assert np.max(np.abs(ser - wide)) <= 1e-12
        assert np.max(np.abs(ser)) <= 1.0 + 1e-14
        assert np.max(np.abs(ser[:, :3] - np.column_stack(c_from_w(pp, w)))) <= 1e-13
        # scalar parameters give the rows of the stacked call
        for row, want in zip(triples(W[::10]), ser[::10]):
            got = phi_series_from_w(pp, row, 40)
            assert got.shape == (40,) and np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("p", [0.9, 0.95, 0.99])
    def test_phi_series_matches_a_40_digit_series_near_the_circle(self, p, rng):
        # omega's pair recovers (1 - |w0|^2) w1 by cancellation, so the rows
        # put w0, and in half of them w1, close to the circle
        mp = pytest.importorskip("mpmath").mp
        W = sample_polydisk(rng, 16)
        W[:, 0] = np.tile([0.99, 0.9999], 8) * np.exp(1j * np.angle(W[:, 0]))
        W[::2, 1] = 0.999 * np.exp(1j * np.angle(W[::2, 1]))
        ser = phi_series_from_w(PoleParam(p), ParamTriple(*W.T), 5)
        with mp.workdps(40):
            pm = mp.mpf(p)
            ref = []
            for w0, w1, w2 in (map(mp.mpc, w) for w in W):
                def phi(z):
                    # phi_evaluator's chain T_p . psi . T_p, at 40 digits
                    z = (pm - z) / (1 - pm * z)
                    u = (z - pm) / (1 - pm * z)
                    inner = (w2 * u + w1) / (1 + mp.conj(w1) * w2 * u)
                    psi = z * (u * inner + w0) / (1 + mp.conj(w0) * u * inner)
                    return (pm - psi) / (1 - pm * psi)

                ref.append([complex(c) for c in mp.taylor(phi, 0, 4)])
        assert np.max(np.abs(ser - np.array(ref))) <= 1e-14

    def test_phi_evaluator_takes_no_points(self, pp05):
        ev = phi_evaluator(pp05, ParamTriple(0.1, 0.2j, -0.3))
        assert ev(np.array([], dtype=np.complex128)).shape == (0,)

    def test_phi_fixes_p(self, pp05, rng):
        for w in triples(sample_polydisk(rng, 30)):
            ev = phi_evaluator(pp05, w)
            assert abs(ev(np.array([pp05.p]))[0] - pp05.p) < 1e-13


class TestJetChain:
    def test_tau_from_w_matches_derivatives(self, pp05, rng):
        p = pp05.p
        for w in triples(0.99 * sample_polydisk(rng, 30)):
            from hankelbody import blaschke_psi
            tau = np.array(tau_from_w(pp05, w))
            psi = blaschke_psi(pp05, *w)
            jet = taylor_from_samples(lambda z: psi(p + z), 0.15, 3, 128)
            assert np.max(np.abs(tau - jet)) < 1e-9

    @pytest.mark.parametrize("p", [0.9, 0.95, 0.99])
    def test_tau_from_w_matches_a_40_digit_jet(self, p, rng):
        # near the circle the jet grows like 1/(1-p^2)^2; the closed form
        # must keep its rounding relative to that size
        mp = pytest.importorskip("mpmath").mp
        W = 0.99 * sample_polydisk(rng, 40)
        tau = np.column_stack(tau_from_w(PoleParam(p), ParamTriple(*W.T)))
        with mp.workdps(40):
            pm = mp.mpf(p)
            ref = []
            for w0, w1, w2 in (map(mp.mpc, w) for w in W):
                def psi(z):
                    # blaschke_psi's chain, at 40 digits
                    u = (z - pm) / (1 - pm * z)
                    inner = (w2 * u + w1) / (1 + mp.conj(w1) * w2 * u)
                    return z * (u * inner + w0) / (1 + mp.conj(w0) * u * inner)

                ref.append([complex(t) for t in mp.taylor(psi, pm, 2)])
        ref = np.array(ref)
        assert np.max(np.abs(tau - ref) / np.maximum(1.0, np.abs(ref))) <= 2e-14

    def test_tau_from_c_consistent(self, pp05, rng):
        for w in triples(sample_polydisk(rng, 50)):
            t1 = np.array(tau_from_w(pp05, w))
            t2 = np.array(tau_from_c(pp05, c_from_w(pp05, w)))
            assert np.max(np.abs(t1 - t2)) < 1e-11


class TestMembership:
    def test_round_trip_interior(self, pp05, rng):
        for w in triples(0.98 * sample_polydisk(rng, 200)):
            res = membership_x2(pp05, c_from_w(pp05, w))
            assert res.decision == "inside"
            assert max(abs(a - b) for a, b in zip(res.params, w)) < 1e-9

    def test_boundary_first_parameter(self, pp05):
        w = ParamTriple(np.exp(0.3j), 0.5, -0.1)
        res = membership_x2(pp05, c_from_w(pp05, w))
        assert res.decision == "boundary"
        assert abs(res.params.x0 - w.x0) < 1e-9
        assert res.params.x1 == 0.0 and res.params.x2 == 0.0

    def test_boundary_second_parameter(self, pp05):
        w = ParamTriple(0.2 + 0.1j, np.exp(1.1j), 0.7)
        res = membership_x2(pp05, c_from_w(pp05, w))
        assert res.decision == "boundary"
        assert abs(res.params.x1 - w.x1) < 1e-8

    def test_boundary_third_parameter(self, pp05):
        w = ParamTriple(0.2 + 0.1j, -0.3, np.exp(2j))
        res = membership_x2(pp05, c_from_w(pp05, w))
        assert res.decision == "boundary"
        assert abs(res.params.x2 - w.x2) < 1e-7

    def test_outside(self, pp05):
        # scale an attainable interior triple well past the body
        c = c_from_w(pp05, ParamTriple(0.3, 0.2, 0.1))
        big = CoeffTriple(c.c0, c.c1 * 3.0, c.c2)
        assert membership_x2(pp05, big).decision == "outside"

    def test_clearly_outside_c0(self, pp05):
        assert membership_x2(pp05, CoeffTriple(5.0, 0.0, 0.0)).decision == "outside"

    # the two triples below lie outside the body: the Pick matrix of the
    # interpolation problem phi(0) = c0, phi'(0) = c1, phi''(0)/2 = c2,
    # phi(p) = p has smallest eigenvalue -0.71 and -0.12 there
    def test_unimodular_w0_with_a_moved_c1_is_outside(self, pp05):
        c = c_from_w(pp05, ParamTriple(1.0, 0.0, 0.0))
        res = membership_x2(pp05, CoeffTriple(c.c0, c.c1 + 0.3, c.c2))
        assert res.decision == "outside"
        assert np.all(np.isnan(np.array(res.params)))

    def test_unimodular_w1_with_a_moved_c2_is_outside(self, pp05):
        c = c_from_w(pp05, ParamTriple(0.3, 1j, 0.0))
        res = membership_x2(pp05, CoeffTriple(c.c0, c.c1, c.c2 + 0.3))
        assert res.decision == "outside"

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99])
    def test_unimodular_steps_check_the_data_they_force(self, p, rng):
        # chain points with |w0| or |w1| on or within the tolerance of 1 stay
        # on the boundary; moving c2 by 0.05 (1 - |c0|^2) leaves the body
        pp = PoleParam(p)
        W = sample_polydisk(rng, 4000)
        W = W[(np.abs(W[:, 0]) == 1.0) | (np.abs(W[:, 1]) == 1.0)]
        near = W.copy()
        near[:, :2] *= np.where(np.abs(W[:, :2]) == 1.0, 1.0 - 0.5e-9, 1.0)
        for w in (W, near):
            c = c_from_w(pp, ParamTriple(*w.T))
            assert np.all(membership_x2(pp, c).decision == "boundary")
        c = c_from_w(pp, ParamTriple(*W.T))
        moved = CoeffTriple(c.c0, c.c1, c.c2 + 0.05 * (1.0 - np.abs(c.c0) ** 2))
        assert np.all(membership_x2(pp, moved).decision == "outside")

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9, 0.95])
    def test_verdicts_agree_with_the_pick_matrix(self, p, rng):
        # phi(0) = c0, phi'(0) = c1, phi''(0)/2 = c2 and phi(p) = p have a
        # self-map solution iff the Pick matrix of the kernel 1/(1 - z conj(w))
        # is positive semidefinite: I - T T^H on the jet at 0 (T the lower
        # triangular Toeplitz matrix of c), the z^i coefficients of
        # (1 - p phi(z)) / (1 - pz) against p, and (1 - p^2)/(1 - p^2) = 1
        pp = PoleParam(p)
        c = np.column_stack(c_from_w(pp, ParamTriple(*sample_polydisk(rng, 4000).T)))
        c = c + 0.02 * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
        T = np.zeros((len(c), 3, 3), dtype=np.complex128)
        for i, j in zip(*np.tril_indices(3)):
            T[:, i, j] = c[:, i - j]
        pick = np.zeros((len(c), 4, 4), dtype=np.complex128)
        pick[:, :3, :3] = np.eye(3) - T @ np.conj(T.transpose(0, 2, 1))
        pk = p ** np.arange(3)
        pick[:, :3, 3] = pk - p * pk * np.cumsum(c / pk, axis=1)
        pick[:, 3, :3] = np.conj(pick[:, :3, 3])
        pick[:, 3, 3] = 1.0
        smallest = np.linalg.eigvalsh(pick)[:, 0]
        outside = membership_x2(pp, CoeffTriple(*c.T)).decision == "outside"
        assert np.sum(smallest > 1e-8) >= 100 and np.sum(smallest < -1e-8) >= 100
        assert not np.any(outside[smallest > 1e-8])
        assert np.all(outside[smallest < -1e-8])
