"""Truncated power-series arithmetic about z = 0.

A series is a complex128 array whose last axis holds the coefficients
``c[..., 0..N]``, where ``c[..., k]`` multiplies ``z**k``; any leading axes
index a stack of series, and every function below acts on the whole stack
at once.  Arithmetic truncates at the smaller of the two operand orders, as
in ``C[[z]] / z^(N+1)``.  The functions take array-likes, check that the
coefficient axis is not empty, and return fresh arrays: they never write
to or alias their inputs.

Two routes give the coefficients of a function.  ``ratio_series`` expands
a ratio of polynomials algebraically, by long division; the package's
self-maps are such ratios, so their series and jets take this route.
``taylor_from_samples`` extracts them from an arbitrary analytic evaluator
through Cauchy's integral formula on a sampling circle; it serves the
closed-form checks against sampled evaluators (the rotation family, the f'
family) and the tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidInput, NonzeroConstantTerm, ZeroConstantTerm

#: below this magnitude a constant term counts as zero in preconditions
CONSTANT_TERM_EPS = 1e-13


def as_complex(x):
    """A Python complex for a scalar, a complex128 array for an array."""
    x = np.asarray(x, dtype=np.complex128)
    return complex(x) if x.ndim == 0 else x


def as_real(x):
    """A Python float for a scalar, a float64 array for an array."""
    x = np.asarray(x, dtype=np.float64)
    return float(x) if x.ndim == 0 else x


def _dot(x, y):
    """Sum over the last axis of x*y, broadcasting the leading axes."""
    return np.einsum("...j,...j->...", x, y)


def _series(a) -> np.ndarray:
    """a as a complex128 coefficient array, after checking that its last axis
    is not empty."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise InvalidInput("a series needs a non-empty last axis")
    return a


def series_mul(a, b) -> np.ndarray:
    """Cauchy product truncated at the smaller of the two orders."""
    a, b = _series(a), _series(b)
    n = min(a.shape[-1], b.shape[-1])
    x, y = a[..., :n], b[..., :n]
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    for k in range(n):
        out[..., k] = _dot(x[..., : k + 1], y[..., k::-1])
    return out


def series_reciprocal(a) -> np.ndarray:
    """Multiplicative inverse modulo z^(N+1).  Requires a nonzero constant term."""
    a = _series(a)
    a0 = a[..., 0]
    if np.any(abs(a0) <= CONSTANT_TERM_EPS):
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    r = np.zeros_like(a)
    r[..., 0] = 1.0 / a0
    for k in range(1, a.shape[-1]):
        r[..., k] = -_dot(a[..., 1 : k + 1], r[..., k - 1 :: -1]) / a0
    return r


def series_exp(a) -> np.ndarray:
    """exp of a series with vanishing constant term.

    Uses the recurrence k*e_k = sum_{j=1..k} j*a_j*e_{k-j} with e_0 = 1.
    """
    a = _series(a)
    if np.any(abs(a[..., 0]) > CONSTANT_TERM_EPS):
        raise NonzeroConstantTerm("series_exp requires a0 = 0")
    e = np.zeros_like(a)
    e[..., 0] = 1.0
    ja = np.arange(a.shape[-1]) * a
    for k in range(1, a.shape[-1]):
        e[..., k] = _dot(ja[..., 1 : k + 1], e[..., k - 1 :: -1]) / k
    return e


def series_integrate(a) -> np.ndarray:
    """Term-wise antiderivative vanishing at 0; the order grows by one."""
    a = _series(a)
    n = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (n + 1,), dtype=np.complex128)
    out[..., 1:] = a / np.arange(1, n + 1)
    return out


def series_derivative(a) -> np.ndarray:
    """Term-wise derivative; the order drops by one, and a constant's is 0."""
    a = _series(a)
    n = a.shape[-1]
    if n == 1:
        return np.zeros_like(a)
    return a[..., 1:] * np.arange(1, n)


def ratio_series(num, den, n_terms: int) -> np.ndarray:
    """First ``n_terms`` Taylor coefficients of num/den for polynomial
    coefficient arrays (coefficient axis last, leading axes broadcast).

    Long division term by term: c_k = (a_k - sum_{j>=1} b_j c_{k-j}) / b_0.
    A rational map of low degree costs a few products per term this way.
    Requires b_0 != 0; any nonzero b_0 is accepted, since a small b_0 such
    as 1 - p^2 near p = 1 is exact data, not a rounding residue.
    """
    if n_terms < 1:
        raise InvalidInput("n_terms must be >= 1")
    a, b = _series(num), _series(den)
    if np.any(b[..., 0] == 0):
        raise ZeroConstantTerm("the denominator has a zero constant term")
    c = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n_terms,),
                 dtype=np.complex128)
    for k in range(n_terms):
        acc = a[..., k] if k < a.shape[-1] else 0.0
        for j in range(1, min(k, b.shape[-1] - 1) + 1):
            acc = acc - b[..., j] * c[..., k - j]
        c[..., k] = acc / b[..., 0]
    return c


def taylor_from_samples(
    eval_fn: Callable[[np.ndarray], np.ndarray],
    radius: float,
    n_terms: int,
    n_samples: int = 256,
) -> np.ndarray:
    """Taylor coefficients of an analytic evaluator via the DFT form of
    Cauchy's integral formula.

    ``eval_fn`` must accept a complex ndarray and be analytic on a disk
    strictly larger than ``radius``; then the trapezoidal discretization of
    the Cauchy integral converges geometrically in ``n_samples``.  An
    evaluator may return leading batch axes in front of the sample axis;
    the coefficients then carry the same axes.
    """
    if n_terms < 1:
        raise InvalidInput("n_terms must be >= 1")
    if radius <= 0:
        raise InvalidInput("radius must be positive")
    if n_samples < 4 * n_terms:
        raise InvalidInput("need n_samples >= 4*n_terms for a trustworthy DFT")
    j = np.arange(n_samples)
    zs = radius * np.exp(2j * np.pi * j / n_samples)
    vals = np.asarray(eval_fn(zs), dtype=np.complex128)
    spectrum = np.fft.fft(vals)  # sum_j vals_j e^{-2pi i jk/m}, along the last axis
    ks = np.arange(n_terms)
    return spectrum[..., :n_terms] / (n_samples * radius**ks)
