"""Coefficient bodies of disk self-maps fixing an interior point, the
second Hankel determinant of the associated concave maps, and numerical
estimation of its extremal modulus."""

from .coeffbody import (CoeffTriple, MembershipResult, ParamTriple, c_from_sigma,
                        c_from_w, membership_x2, phi_evaluator,
                        phi_series_from_w, sigma_from_w, tau_from_c, tau_from_w,
                        w_from_sigma)
from .disk import (DiskRegion, PoleParam, blaschke_psi, dieudonne2_lhs,
                   dieudonne2_rhs, dieudonne_disk1, mobius_T, omega_pair,
                   pseudo_hyperbolic, rho_coeffs, rho_eval)
from .hankel import (ACoeffs, H_F, A_n, B_coeffs, G_p, a_from_c, aw_disk,
                     g_poly, h_p, h_p_prime, hankel2, hankel_from_c,
                     hankel_from_sigma, lower_bound_M, omega_map, phi_p,
                     upper_bound_M)
from .oracle import a_from_phi, fprime_series, verify_all
from .search import (ExtremalReport, RegionSample, check_omega_monotone,
                     contains, estimate_M, hausdorff_distance,
                     sample_omega_boundary, sample_region_H)
from .series import (series_derivative, series_exp, series_integrate,
                     series_mul, series_reciprocal, ratio_series,
                     taylor_from_samples)

__version__ = "0.1.0"
