"""Truncated power-series arithmetic about z = 0.

A series is stored as a complex128 coefficient vector ``c[0..N]`` where
``c[k]`` multiplies ``z**k``.  Arithmetic truncates at the smaller of the
two operand orders, so these objects behave like elements of
``C[[z]] / z^(N+1)``.  A coefficient array may also carry leading batch
axes, with the coefficient axis last: then one object holds a stack of
series, and every operation below acts on the whole stack at once.

Two routes give the coefficients of a function.  ``ratio_series`` expands
a ratio of polynomials algebraically, by long division; the package's
self-maps are such ratios, so their series and jets take this route.
``taylor_from_samples`` extracts them from an arbitrary analytic evaluator
through Cauchy's integral formula on a sampling circle; it serves the
closed-form checks against sampled evaluators (the rotation family, the f'
family) and the tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NonzeroConstantTerm, ZeroConstantTerm

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


class TruncatedSeries:
    """Immutable coefficient vector of a power series about 0 (or a stack of them)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex] | np.ndarray):
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.ndim == 0 or c.shape[-1] == 0:
            raise ValueError("coeffs must have a non-empty last axis")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    def __getitem__(self, k: int):
        return as_complex(self.coeffs[..., k])

    def __len__(self) -> int:
        return self.coeffs.shape[-1]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def truncated(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[..., : order + 1])

    def scaled(self, a: complex) -> "TruncatedSeries":
        return TruncatedSeries(a * self.coeffs)


def series_from_constant(value: complex, order: int) -> TruncatedSeries:
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = value
    return TruncatedSeries(c)


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(a.coeffs[..., : n + 1] + b.coeffs[..., : n + 1])


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    n = min(a.order, b.order)
    x, y = a.coeffs[..., : n + 1], b.coeffs[..., : n + 1]
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    for k in range(n + 1):
        out[..., k] = _dot(x[..., : k + 1], y[..., k::-1])
    return TruncatedSeries(out)


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo z^(N+1).  Requires a nonzero constant term."""
    a0 = a.coeffs[..., 0]
    if np.any(abs(a0) <= CONSTANT_TERM_EPS):
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    r = np.zeros_like(a.coeffs)
    r[..., 0] = 1.0 / a0
    for k in range(1, a.order + 1):
        r[..., k] = -_dot(a.coeffs[..., 1 : k + 1], r[..., k - 1 :: -1]) / a0
    return TruncatedSeries(r)


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with vanishing constant term.

    Uses the recurrence k*e_k = sum_{j=1..k} j*a_j*e_{k-j} with e_0 = 1.
    """
    if np.any(abs(a.coeffs[..., 0]) > CONSTANT_TERM_EPS):
        raise NonzeroConstantTerm("series_exp requires a0 = 0")
    e = np.zeros_like(a.coeffs)
    e[..., 0] = 1.0
    ja = np.arange(a.order + 1) * a.coeffs
    for k in range(1, a.order + 1):
        e[..., k] = _dot(ja[..., 1 : k + 1], e[..., k - 1 :: -1]) / k
    return TruncatedSeries(e)


def series_integrate(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise antiderivative vanishing at 0; the order grows by one."""
    out = np.zeros(a.coeffs.shape[:-1] + (a.order + 2,), dtype=np.complex128)
    out[..., 1:] = a.coeffs / np.arange(1, a.order + 2)
    return TruncatedSeries(out)


def series_derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise derivative; the order drops by one."""
    if a.order == 0:
        return TruncatedSeries(np.zeros_like(a.coeffs))
    return TruncatedSeries(a.coeffs[..., 1:] * np.arange(1, a.order + 1))


def ratio_series(num, den, n_terms: int) -> TruncatedSeries:
    """First ``n_terms`` Taylor coefficients of num/den for polynomial
    coefficient arrays (coefficient axis last, leading axes broadcast).

    Long division term by term: c_k = (a_k - sum_{j>=1} b_j c_{k-j}) / b_0.
    A rational map of low degree costs a few products per term this way.
    Requires b_0 != 0; any nonzero b_0 is accepted, since a small b_0 such
    as 1 - p^2 near p = 1 is exact data, not a rounding residue.
    """
    # coefficient axis first inside, so each term is one contiguous stack
    a = np.moveaxis(np.asarray(num, dtype=np.complex128), -1, 0)
    b = np.moveaxis(np.asarray(den, dtype=np.complex128), -1, 0)
    if np.any(b[0] == 0):
        raise ZeroConstantTerm("the denominator has a zero constant term")
    c = np.zeros((n_terms,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                 dtype=np.complex128)
    for k in range(n_terms):
        acc = a[k] if k < len(a) else 0.0
        for j in range(1, min(k, len(b) - 1) + 1):
            acc = acc - b[j] * c[k - j]
        c[k] = acc / b[0]
    return TruncatedSeries(np.moveaxis(c, 0, -1))


def taylor_from_samples(
    eval_fn: Callable[[np.ndarray], np.ndarray],
    radius: float,
    n_terms: int,
    n_samples: int = 256,
) -> TruncatedSeries:
    """Taylor coefficients of an analytic evaluator via the DFT form of
    Cauchy's integral formula.

    ``eval_fn`` must accept a complex ndarray and be analytic on a disk
    strictly larger than ``radius``; then the trapezoidal discretization of
    the Cauchy integral converges geometrically in ``n_samples``.  An
    evaluator may return leading batch axes in front of the sample axis;
    the series then carries the same axes.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_samples < 4 * n_terms:
        raise ValueError("need n_samples >= 4*n_terms for a trustworthy DFT")
    j = np.arange(n_samples)
    zs = radius * np.exp(2j * np.pi * j / n_samples)
    vals = np.asarray(eval_fn(zs), dtype=np.complex128)
    spectrum = np.fft.fft(vals)  # sum_j vals_j e^{-2pi i jk/m}, along the last axis
    ks = np.arange(n_terms)
    coeffs = spectrum[..., :n_terms] / (n_samples * radius**ks)
    return TruncatedSeries(coeffs)
