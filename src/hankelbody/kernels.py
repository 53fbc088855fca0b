"""The polydisk functional Phi_p, written once.

H = Phi_p(sigma0, sigma1, sigma2) / (18 P^3) on the closed polydisk, and
Phi_p = T0 + T1 s1 + T2 s1^2 + C (1 - |s1|^2) s2 with (T0, T1, T2, C) of
sigma0 alone, transcribed once by ``phi_sigma0_terms`` from the factors
that depend on P alone, which ``phi_factors`` forms.  It uses nothing but
arithmetic, the builtin ``abs`` and ``.conjugate()``, so the same code
evaluates Python scalars (``hankel.phi_p``, ``best_sigma2``), numpy arrays
(``phi_batch``, ``phi_sigma2_max``) and a symbolic P, always at one P.
"""

from __future__ import annotations

import numpy as np

#: There is no compiled path.  The name stays because the benchmark worker
#: (``perfbench/worker.py``) reads it at startup.
USE_NUMBA = False


def phi_factors(P) -> tuple:
    """The factors of Phi_p that depend on P alone, in the order
    ``phi_sigma0_terms`` reads them.

    Each is formed from the scalar ``P`` with scalar arithmetic: ``P**4`` is
    Python's ``pow`` for a float and C's ``pow`` for a numpy float64, which
    agree, while numpy's array power does not always match them in the last bit.
    """
    return (P * P - 1.0, 3.0 * P, -18.0 * P, P * P - 2.0,
            1.0 - 7.0 * P * P + 2.0 * P**4, 3.0 * P * P - 2.0, -P)


def phi_sigma0_terms(P, s0):
    """(T0, T1, T2, C) with Phi_p = T0 + T1 s1 + T2 s1^2 + C (1 - |s1|^2) s2."""
    a, b, c, d, e, f, g = phi_factors(P)
    m0 = 1.0 - abs(s0) ** 2
    # C first, so that its sigma0 factor is freed before the other terms exist
    C = b * (a + s0) * m0
    T0 = c * (1.0 + d * s0 + s0 * s0)
    T1 = 3.0 * (e + f * s0 + s0 * s0) * m0
    T2 = g * (2.0 * m0 + 3.0 * s0.conjugate() * (a + s0)) * m0
    return T0, T1, T2, C


def _phi_terms(P, s0, s1):
    """(head, coef) with Phi_p = head + coef * s2."""
    T0, T1, T2, C = phi_sigma0_terms(P, s0)
    return T0 + T1 * s1 + T2 * s1 * s1, C * (1.0 - abs(s1) ** 2)


def phi_batch(P: float, s0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Vectorized Phi over parallel parameter arrays."""
    s0 = np.ascontiguousarray(s0, dtype=np.complex128)
    s1 = np.ascontiguousarray(s1, dtype=np.complex128)
    s2 = np.ascontiguousarray(s2, dtype=np.complex128)
    head, coef = _phi_terms(P, s0, s1)
    return head + coef * s2


def phi_sigma2_max(P: float, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Vectorized sup over |sigma2| <= 1 of |Phi| = |head + coef sigma2|,
    which is |head| + |coef|."""
    s0 = np.ascontiguousarray(s0, dtype=np.complex128)
    s1 = np.ascontiguousarray(s1, dtype=np.complex128)
    head, coef = _phi_terms(P, s0, s1)
    return abs(head) + abs(coef)


def best_sigma2(P: float, s0: complex, s1: complex) -> complex:
    """Unit-modulus sigma2 aligning the affine term with the rest of Phi."""
    head, coef = _phi_terms(P, complex(s0), complex(s1))
    if abs(coef) == 0.0:
        return 1.0 + 0.0j
    if abs(head) == 0.0:
        return complex(abs(coef) / coef)
    # phase that rotates the sigma2 term onto the direction of the head
    return complex((head / abs(head)) * (abs(coef) / coef))
