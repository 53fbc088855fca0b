import inspect
import json

import numpy as np
import pytest

import hankelbody.oracle as oracle
import hankelbody.search as search
from hankelbody import (ParamTriple, PoleParam, a_from_c, a_from_phi,
                        aw_disk, c_from_w, fprime_series, hankel2,
                        phi_series_from_w, verify_all)
from hankelbody.coeffbody import phi_evaluator
from hankelbody.errors import InvalidInput
from hankelbody.oracle import (_FPRIME_TERMS, _FPRIME_TOL, _circle_antiderivative,
                               _prefactor_series, a_batch_from_w,
                               fprime_aliasing_bound, fprime_exponent_bound,
                               fprime_sampled, fprime_sampling_size)
from hankelbody.search import sample_polydisk, sample_region_H
from hankelbody.series import (series_exp, series_integrate, series_mul,
                               series_reciprocal, taylor_from_samples)

from conftest import triples


class TestFPrimeSeries:
    def test_constant_term_is_one(self, pp05, rng):
        for w in triples(sample_polydisk(rng, 20)):
            fp = fprime_series(pp05, phi_series_from_w(pp05, w, 8))
            assert abs(fp[0] - 1.0) < 1e-10

    def test_zero_phi_gives_prefactor(self, pp05):
        # phi = 0: exponential factor is 1 and f' is the rational prefactor
        from hankelbody.oracle import _prefactor_series
        fp = fprime_series(pp05, np.zeros(7))
        pre = _prefactor_series(pp05, 6)
        assert np.max(np.abs(fp - pre)) < 1e-13

    def test_a_from_phi_matches_algebra(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            for w in triples(sample_polydisk(rng, 25)):
                a_ser = np.array(a_from_phi(pp, phi_series_from_w(pp, w, 8)))
                a_alg = np.array(a_from_c(pp, c_from_w(pp, w)))
                assert np.max(np.abs(a_ser - a_alg)) < 1e-8


class TestBatchedRoute:
    def test_matches_scalar_route(self, pp05, rng):
        W = sample_polydisk(rng, 60)
        batched = a_batch_from_w(pp05, W)
        for k, w in enumerate(triples(W)):
            scalar = np.array(a_from_phi(pp05, phi_series_from_w(pp05, w, 8)))
            assert np.max(np.abs(batched[k] - scalar)) < 1e-10

    def test_no_rows_give_no_coefficients(self, pp05):
        A = a_batch_from_w(pp05, np.zeros((0, 3), dtype=np.complex128))
        assert A.shape == (0, 3)

    def test_hankel_against_algebra(self, rng):
        for p in (0.2, 0.5, 0.8):
            pp = PoleParam(p)
            W = sample_polydisk(rng, 300)
            A = a_batch_from_w(pp, W)
            h_ser = A[:, 0] * A[:, 2] - A[:, 1] ** 2
            h_alg = np.array([
                hankel2(a_from_c(pp, c_from_w(pp, w))) for w in triples(W)
            ])
            assert np.max(np.abs(h_ser - h_alg)) < 1e-8


#: the family names of a report, in report order: the series-algebra
#: families once, then these per-p families for each p, tagged with p
SERIES_FAMILIES = ["series_reciprocal_identity", "series_exp_integrate_derivative",
                   "taylor_polynomial_recovery", "mobius_involution"]
PER_P_FAMILIES = [
    "rho_closed_form_vs_sampling", "dieudonne_first_order", "dieudonne_second_order",
    "chain_equivalence_w_vs_sigma", "oracle_equivalence_series_vs_w", "fixed_point_phi_p",
    "self_map_bound", "membership_round_trip", "phi_consistency", "eqH_consistency",
    "HF_closed_form", "omega_slice", "hp_vs_phi_slice", "hp_anchors",
    "lower_bound_identity", "bound_sandwich", "triple_path_agreement",
    "fprime_series_vs_sampling"]


def _family(report, name):
    return next(f for f in report["families"] if f["name"] == name)


class TestVerifyAll:
    def test_default_report_passes(self):
        report = verify_all(p_values=(0.3, 0.6), n_random=200, seed=7)
        failed = [f["name"] for f in report["families"] if not f["pass"]]
        assert report["pass"], f"failing families: {failed}"

    def test_report_shape_and_serializable(self):
        report = verify_all(p_values=(0.3, 0.9), n_random=40, seed=2)
        json.dumps(report)  # must be JSON-ready
        assert report["p_values"] == [0.3, 0.9]
        assert report["seed"] == 2
        for fam in report["families"]:
            extra = (["n_samples", "exponent_bound", "aliasing_bound"]
                     if fam["name"].startswith("fprime_series_vs_sampling") else [])
            assert list(fam) == ["name", "samples", "worst_residual",
                                 "tolerance", "pass"] + extra
            assert fam["worst_residual"] >= 0.0
        names = [f["name"] for f in report["families"]]
        assert names == SERIES_FAMILIES + [f"{name}[p={p}]" for p in (0.3, 0.9)
                                           for name in PER_P_FAMILIES]

    @pytest.mark.parametrize("p", [0.001, 0.01])
    def test_rho_family_passes_at_small_p(self, p):
        report = verify_all(p_values=(p,), n_random=8, seed=1)
        fam, = (f for f in report["families"]
                if f["name"] == f"rho_closed_form_vs_sampling[p={p:g}]")
        assert fam["pass"]
        assert fam["worst_residual"] < 1e-14

    def test_family_names_tell_close_p_apart(self):
        # 0.1234567 and 0.1234568 share six significant digits
        report = verify_all(p_values=(0.1234567, 0.1234568), n_random=8, seed=1)
        names = [f["name"] for f in report["families"]]
        assert len(set(names)) == len(names)
        assert "fprime_series_vs_sampling[p=0.1234568]" in names

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.123456, 0.999999, 1e-05, 0.00012])
    def test_family_names_of_short_p_are_unchanged(self, p):
        # repr and the old :g format agree up to six significant digits, for
        # numpy floats too
        report = verify_all(p_values=(np.float64(p),), n_random=8, seed=1)
        assert report["families"][-1]["name"] == f"fprime_series_vs_sampling[p={p:g}]"

    def test_reproducible(self):
        r1 = verify_all(p_values=(0.4,), n_random=60, seed=3)
        r2 = verify_all(p_values=(0.4,), n_random=60, seed=3)
        assert r1 == r2

    # verify's bytes are those of one whole sample_polydisk draw, whatever
    # the chunk size of region exports
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_region_chunk_leaves_the_report_alone(self, chunk, monkeypatch):
        default = verify_all(p_values=(0.4,), n_random=60, seed=3)
        monkeypatch.setattr(search, "REGION_CHUNK", chunk)
        assert verify_all(p_values=(0.4,), n_random=60, seed=3) == default

    def test_detects_injected_drift(self, monkeypatch):
        # a perturbed quartic table must show up as a failing family
        import hankelbody.hankel as hk
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


class TestNonFiniteResiduals:
    """A NaN residual fails its family, as an inf one does."""

    def test_nan_series_route_fails_the_triple_path(self, monkeypatch):
        orig = oracle.a_batch_from_w
        monkeypatch.setattr(oracle, "a_batch_from_w", lambda pp, W: orig(pp, W) * np.nan)
        fam = _family(verify_all((0.5,), 50, 2), "triple_path_agreement[p=0.5]")
        assert not fam["pass"] and np.isnan(fam["worst_residual"])

    def test_nan_evaluator_fails_the_self_map_bound(self, monkeypatch):
        orig = oracle.phi_evaluator

        def nan_evaluator(pp, w):
            ev = orig(pp, w)
            return lambda z: ev(z) * np.nan

        monkeypatch.setattr(oracle, "phi_evaluator", nan_evaluator)
        with np.errstate(invalid="ignore"):  # the f' family divides by the NaNs
            report = verify_all((0.5,), 50, 2)
        fam = _family(report, "self_map_bound[p=0.5]")
        assert not fam["pass"] and np.isnan(fam["worst_residual"])

    def test_nan_hp_prime_fails_the_anchors(self, monkeypatch):
        monkeypatch.setattr(oracle, "h_p_prime", lambda pp, t: np.nan)
        fam = _family(verify_all((0.5,), 50, 2), "hp_anchors[p=0.5]")
        assert not fam["pass"] and np.isnan(fam["worst_residual"])


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
        w = ParamTriple(*sample_polydisk(rng, 50).T)
        fp = fprime_series(pp, phi_series_from_w(pp, w, 9))[:, :_FPRIME_TERMS]
        worst = np.max(np.abs(fprime_sampled(pp, w, 32) - fp))
        assert _FPRIME_TOL < worst <= fprime_aliasing_bound(p, 32)

    def test_sizes_are_the_smallest_powers_of_two_within_the_bounds(self):
        tol = _FPRIME_TOL
        for p in (0.01, 0.1, 0.25, 0.5, 0.8, 0.95, 0.999):
            n_samples = fprime_sampling_size(p)
            assert n_samples & (n_samples - 1) == 0
            assert n_samples >= 4 * _FPRIME_TERMS
            assert fprime_aliasing_bound(p, n_samples) <= tol / 10
            assert fprime_exponent_bound(p, n_samples) <= tol / 10
            # the aliasing bound decides: at half the size it alone is too large
            assert n_samples == 32 or fprime_aliasing_bound(p, n_samples // 2) > tol / 10

    def test_family_catches_one_wrong_coefficient(self, monkeypatch):
        orig = oracle.fprime_series

        def bad(pp, phi):
            # one coefficient of one row off by 1e-6
            c = orig(pp, phi).copy()
            c[7, 3] += 1e-6
            return c

        monkeypatch.setattr(oracle, "fprime_series", bad)
        report = verify_all(p_values=(0.5,), n_random=50, seed=2)
        fam = next(f for f in report["families"]
                   if f["name"] == "fprime_series_vs_sampling[p=0.5]")
        assert not fam["pass"] and fam["worst_residual"] > 9e-7

    def test_verify_all_stays_within_its_evaluation_budget(self, monkeypatch):
        # every phi evaluation of verify_all goes through phi_evaluator, and
        # no exponent is integrated by a Gauss-Legendre rule
        import hankelbody.coeffbody as coeffbody
        orig = coeffbody.phi_evaluator
        points = []

        def no_gauss_legendre(*args, **kwargs):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_gauss_legendre)

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
        # the self-map check at 64 points and the fixed-point check on 300
        # rows, and the f' sampling at its n_samples points per row; the phi
        # series are algebraic, and 512 points x 32 nodes for f' made 1,005,100
        assert sum(points) == 300 * (64 + 1) + 50 * fam["n_samples"]
        assert sum(points) <= 25_000

    @pytest.mark.parametrize("p_values", [(0.5,), (0.3, 0.9)])
    def test_phi_series_and_psi_jets_take_no_samples(self, p_values, monkeypatch):
        # the Cauchy samplings left are taylor_polynomial_recovery's, and
        # per p the rho family's and fprime_sampled's
        import hankelbody
        calls = []
        for mod in vars(hankelbody).values():
            orig = getattr(mod, "taylor_from_samples", None)
            if inspect.ismodule(mod) and orig is not None:
                def counting(*args, _orig=orig, **kwargs):
                    calls.append(args[1])
                    return _orig(*args, **kwargs)

                monkeypatch.setattr(mod, "taylor_from_samples", counting)
        report = verify_all(p_values=p_values, n_random=60, seed=4)
        assert report["pass"]
        radii = [0.5] + [r for p in p_values for r in (0.5, p / 2)]
        assert calls == radii


def _gauss_legendre_exponent(pp, w, z, nodes=64):
    """E(z) = int_0^z -2 phi / (1 - t phi) dt by a Gauss-Legendre rule on the
    ray [0, z]: a reference that shares nothing with the spectral rule."""
    t, weights = np.polynomial.legendre.leggauss(nodes)
    t, weights = 0.5 * (t + 1.0), 0.5 * weights
    ev = phi_evaluator(pp, ParamTriple(*(np.asarray(x)[..., None, None] for x in w)))
    s = z[:, None] * t
    vals = ev(s)
    return (-2.0 * vals / (1.0 - s * vals)) @ weights * z


def _prefactor(p, z):
    return p**2 / ((z - p) ** 2 * (1.0 - p * z) ** 2)


class TestSpectralExponent:
    """``fprime_sampled`` integrates the exponent on its own sampling circle."""

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.25, 0.5, 0.8, 0.95, 0.999])
    def test_matches_gauss_legendre_and_the_series(self, p, rng):
        pp = PoleParam(p)
        w = ParamTriple(*sample_polydisk(rng, 50).T)
        got = fprime_sampled(pp, w, 64)
        ref = taylor_from_samples(
            lambda z: _prefactor(p, z) * np.exp(_gauss_legendre_exponent(pp, w, z)),
            p / 2, _FPRIME_TERMS, 64)
        ser = fprime_series(pp, phi_series_from_w(pp, w, _FPRIME_TERMS))
        # the Cauchy sum divides coefficient k by (p/2)^k, and its rounding with it
        scale = (2.0 / p) ** np.arange(_FPRIME_TERMS)
        assert np.max(np.abs(got - ref) / scale) < 1e-14
        assert np.max(np.abs(got - ser) / scale) < 1e-14

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.8, 0.95, 0.999])
    def test_exponent_bound_covers_a_coarse_rule(self, p, rng):
        # at 8 and 16 points the rule's own error dominates rounding for
        # these p; it moves f' on the circle by at most the bound times r^4
        pp = PoleParam(p)
        w = ParamTriple(*sample_polydisk(rng, 50).T)
        r = p / 2
        ev = phi_evaluator(pp, ParamTriple(*(np.asarray(x)[..., None] for x in w)))
        for m in (8, 16):
            z = r * np.exp(2j * np.pi * np.arange(m) / m)
            vals = ev(z)
            expo = _circle_antiderivative(-2.0 * vals / (1.0 - z * vals), r)
            exact = _gauss_legendre_exponent(pp, w, z)
            moved = np.max(np.abs(_prefactor(p, z) * (np.exp(expo) - np.exp(exact))))
            measured = moved / r ** (_FPRIME_TERMS - 1)
            assert measured <= fprime_exponent_bound(p, m)
            if m == 8:
                assert measured > _FPRIME_TOL  # the coarse rule is measurably off
        assert fprime_exponent_bound(p, fprime_sampling_size(p)) <= _FPRIME_TOL / 10

    def test_antiderivative_is_exact_on_low_degree_polynomials(self):
        # g = sum_k c_k z^k with k < m - 1 integrates exactly
        c = np.array([1.0, -2.0 + 1j, 0.5j, 3.0])
        r, m = 0.4, 8
        z = r * np.exp(2j * np.pi * np.arange(m) / m)
        got = _circle_antiderivative(np.polynomial.polynomial.polyval(z, c), r)
        want = np.polynomial.polynomial.polyval(z, np.concatenate([[0.0], c / np.arange(1, 5)]))
        assert np.max(np.abs(got - want)) < 1e-15


class TestSeriesCut:
    """The series are expanded only to the orders read, bit for bit as the
    10-term expansions read them."""

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("rows", [50, 850, 2000])
    def test_a_batch_from_w_equals_a_ten_term_expansion(self, p, rows, rng):
        pp = PoleParam(p)
        W = sample_polydisk(rng, rows)
        ref = np.column_stack(a_from_phi(pp, phi_series_from_w(pp, ParamTriple(*W.T), 10)))
        assert a_batch_from_w(pp, W).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_fprime_family_series_equals_a_ten_term_expansion(self, p, rng):
        pp = PoleParam(p)
        w = ParamTriple(*sample_polydisk(rng, 50).T)
        got = fprime_series(pp, phi_series_from_w(pp, w, _FPRIME_TERMS))
        ref = fprime_series(pp, phi_series_from_w(pp, w, 10))[:, :_FPRIME_TERMS]
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _reciprocal_recurrence(a):
    """1/a by the recurrence r_0 = 1/a_0, r_k = -sum_{j=1..k} a_j r_{k-j} / a_0,
    one dot product per term: the route ``series_reciprocal`` took before it
    divided by ``ratio_series``."""
    a = np.asarray(a, dtype=np.complex128)
    r = np.zeros_like(a)
    r[..., 0] = 1.0 / a[..., 0]
    for k in range(1, a.shape[-1]):
        r[..., k] = -np.einsum("...j,...j->...", a[..., 1:k + 1], r[..., k - 1::-1]) / a[..., 0]
    return r


def _fprime_series_by_reciprocal(pp, phi):
    """``fprime_series`` with the integrand as -2 phi times the reciprocal of
    1 - z phi cut to phi's order: the route it took before its one long
    division."""
    order = phi.shape[-1] - 1
    one_minus_zphi = np.zeros_like(phi)
    one_minus_zphi[..., 0] = 1.0
    one_minus_zphi[..., 1:] = -phi[..., :-1]
    integrand = series_mul(-2.0 * phi, _reciprocal_recurrence(one_minus_zphi))
    expo = series_exp(series_integrate(integrand)[..., : order + 1])
    return series_mul(_prefactor_series(pp, order), expo)


class TestReplacedRoutes:
    """The long divisions agree with the recurrences they replaced."""

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("n_terms", [_FPRIME_TERMS, 10])
    def test_fprime_series_matches_the_reciprocal_route(self, p, n_terms, rng):
        pp = PoleParam(p)
        W = sample_polydisk(rng, 300)
        scale = (2.0 / p) ** np.arange(n_terms)
        for rows in (0.99 * W, W / np.abs(W)):  # interior and unimodular
            phi = phi_series_from_w(pp, ParamTriple(*rows.T), n_terms)
            got, ref = fprime_series(pp, phi), _fprime_series_by_reciprocal(pp, phi)
            assert np.max(np.abs(got - ref) / scale) < 1e-13

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_series_reciprocal_matches_the_recurrence(self, seed):
        # verify_all's draw: |c0| in [0.1, 10], where the recurrence grows
        # the coefficients to about 1e9, so the bound is relative to each row
        u = np.random.default_rng(seed).uniform(size=(200, 20))
        c = (-1 + 2 * u[:, :9]) + 1j * (-1 + 2 * u[:, 9:18])
        c[:, 0] = (0.1 + 9.9 * u[:, 18]) * np.exp(1j * (2 * np.pi * u[:, 19]))
        got, ref = series_reciprocal(c), _reciprocal_recurrence(c)
        size = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.max(np.abs(got - ref) / size) < 1e-13


@pytest.mark.parametrize("call", [
    lambda: verify_all((0.5,), n_random=0),
    lambda: verify_all((0.5,), n_random=-3),
    lambda: verify_all((0.5,), n_random=5, seed=-1),
    lambda: sample_region_H(PoleParam(0.5), n_samples=10, seed=-1),
], ids=["verify_n_random_0", "verify_n_random_negative", "verify_seed",
        "sample_region_H_seed"])
def test_sizes_and_seeds_are_checked_as_invalid_input(call):
    # numpy's own errors would surface otherwise: an empty maximum, a
    # negative dimension, a negative seed
    with pytest.raises(InvalidInput):
        call()
