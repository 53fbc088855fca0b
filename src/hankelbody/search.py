"""The extremal modulus M(p) and region sampling.

M(p) = sup |H| over the closed polydisk is the maximum over t in [0, 1] of
the paper's quartic slice h_p(t) = -H(t, -1, 0) (README, "The extremal
modulus", gives the six-step proof, and ``tests/test_exact.py`` checks its
identities with sympy on the package's own Phi).  So ``estimate_M``
evaluates |H| once, at (t*, -1) with t* the slice's argmax, and nothing
else; it is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coeffbody import ParamTriple
from .disk import PoleParam
from .errors import InvalidInput
from .hankel import hp_numerator_coeffs, omega_map
from .kernels import best_sigma2, phi_batch, phi_sigma2_max

#: angular bins of the H-cloud's boundary polyline
REGION_BINS = 256
#: fewest points on the Omega_p boundary polyline
OMEGA_MIN_POINTS = 16
#: share of ``sample_polydisk`` moduli forced onto |s| = 1
BOUNDARY_RATE = 0.1
#: rows per chunk of the region samplers: per ``phi_batch`` call and block
#: of polydisk samples of ``sample_region_H``, per pass of its binned
#: boundary, and per ``omega_map`` call of ``sample_omega_boundary``; each
#: chunk holds a few temporaries of its length
REGION_CHUNK = 2**13


@dataclass(frozen=True)
class RegionSample:
    """Point cloud plus an ordered closed boundary polyline.

    ``points`` and ``boundary`` are 1-D C-contiguous complex128 arrays, as
    the region writers take them, and Omega_p's ``points`` are its
    ``boundary`` without the closing point.  ``meta`` holds the sampler's
    inputs.  The H-cloud's ``boundary`` is an export only, not a membership
    test: some of its own cloud's points lie outside it (ROADMAP item 7)."""

    points: np.ndarray
    boundary: np.ndarray
    meta: dict


@dataclass(frozen=True)
class ExtremalReport:
    """What ``estimate_M`` computed: the modulus ``m_estimate`` of H at p,
    which is M(p) by the slice theorem, and the polydisk point ``arg_sigma``
    = (t*, -1, sigma2) where it is attained.  The paper's closed-form bounds
    on M(p) are ``hankel.lower_bound_M`` and ``hankel.upper_bound_M``."""

    p: float
    m_estimate: float
    arg_sigma: ParamTriple


def _slice_argmax(P: float) -> float:
    """The t in [0, 1] where the quartic slice |h_p| is largest.

    The candidates are the endpoints and the roots of h_p', real parts
    clipped into [0, 1]: a superset of the critical points in [0, 1], and a
    near-double root keeps its candidate even when rounding makes it complex.
    """
    c = hp_numerator_coeffs(P)
    crit = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(c))
    t = np.clip(np.concatenate(([0.0, 1.0], crit.real)), 0.0, 1.0)
    return float(t[np.argmax(np.abs(np.polynomial.polynomial.polyval(t, c)))])


# ``minimize``'s first step along each axis, and the step below which a
# start retires
_STEP0 = 0.05
_XATOL = 1e-12


class SearchResult(NamedTuple):
    """Per-start outcome of ``minimize``, one row or entry per start."""

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray


# Nothing in the package calls ``minimize``.  It stays because the benchmark's
# tracer (``perfbench/tracer.py``) wraps it when it installs.
def minimize(fun, X0: np.ndarray, maxiter: int) -> SearchResult:
    """Compass search (Kolda, Lewis and Torczon, SIAM Review 45, 2003) from
    every row of ``X0`` at once, for at most ``maxiter`` steps each.

    ``fun(X)`` maps an (m, d) array ``X`` to m values.  Each step makes one
    call, on the 2d points around every live start that are +h along each
    axis and then -h along each axis.  A start moves to the lowest of its points when
    that is strictly lower than its value, the first of equal values on
    ties; otherwise its step h halves, from ``_STEP0``, and once h is below
    ``_XATOL`` the start retires and is evaluated no more.  ``nit`` counts
    each start's steps and ``nfev`` its evaluations, the start's own
    included.
    """
    X = np.array(X0, dtype=np.float64)
    n, N = X.shape
    F = fun(X)
    h = np.full(n, _STEP0)
    nit = np.zeros(n, dtype=int)
    axes = np.concatenate((np.eye(N), -np.eye(N)))
    live = np.arange(n)
    for _ in range(maxiter):
        if not live.size:
            break
        pts = X[live, None] + h[live, None, None] * axes
        vals = fun(pts.reshape(-1, N)).reshape(live.size, 2 * N)
        j = vals.argmin(axis=1)
        low = vals[np.arange(live.size), j]
        nit[live] += 1
        moved = low < F[live]
        X[live[moved]], F[live[moved]] = pts[moved, j[moved]], low[moved]
        h[live[~moved]] *= 0.5
        live = live[h[live] >= _XATOL]
    return SearchResult(x=X, fun=F, nit=nit, nfev=1 + 2 * N * nit)


def estimate_M(pp: PoleParam) -> ExtremalReport:
    """M(p): the sup over sigma2 of |H| at the slice point (t*, -1), with t*
    from ``_slice_argmax`` and the sup in closed form (``phi_sigma2_max``).
    The point is reported as (t*, -1, ``best_sigma2`` there)."""
    P = pp.P
    t = _slice_argmax(P)
    sup = phi_sigma2_max(P, np.array([t]), np.array([-1.0]))[0]
    return ExtremalReport(
        p=pp.p,
        m_estimate=float(sup) / (18.0 * P**3),
        arg_sigma=ParamTriple(complex(t), complex(-1.0), best_sigma2(P, t, -1.0)),
    )


def sample_polydisk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Area-uniform polydisk samples (n, 3), a ``BOUNDARY_RATE`` share of moduli set to 1.

    One stream-order draw from any ``rng``: 3n float uniforms each for the
    moduli, then the angles, then the boundary-rate uniforms."""
    r = rng.uniform(0.0, 1.0, size=(n, 3))
    np.sqrt(r, out=r)
    z = np.multiply(1j, rng.uniform(0.0, 2.0 * np.pi, size=(n, 3)),
                    out=np.empty((n, 3), dtype=np.complex128))
    r[rng.uniform(size=(n, 3)) < BOUNDARY_RATE] = 1.0
    np.exp(z, out=z)
    return np.multiply(r, z, out=z)


def sample_region_H(pp: PoleParam, n_samples: int = 1000, seed: int = 1) -> RegionSample:
    """Point cloud of H values over pseudo-random polydisk parameters.

    The boundary field holds direction-binned radial maxima around the
    cloud centroid; the region is not assumed convex, so no hull is taken.
    """
    if n_samples < 1:
        raise InvalidInput("n_samples must be >= 1")
    if seed < 0:
        raise InvalidInput("seed must be >= 0")
    vals = _region_values(pp, np.random.default_rng(seed), n_samples)
    boundary = _binned_boundary(vals)
    return RegionSample(points=vals, boundary=boundary,
                        meta={"p": pp.p, "n_samples": n_samples, "seed": seed})


def _region_values(pp: PoleParam, rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """H at ``n_samples`` polydisk samples, then at a dedicated all-boundary
    slice and the rotation-family slice, each ``max(n_samples // 4, 8)`` rows.

    The rows come from ``_region_chunks`` and each chunk is one ``phi_batch``
    call, written into the one array of values; no parameter array longer
    than a chunk is held.
    """
    n_extra = max(n_samples // 4, 8)
    vals = np.empty(n_samples + 2 * n_extra, dtype=np.complex128)
    scale = 18.0 * pp.P**3
    i = 0
    for s in _region_chunks(pp, rng, n_samples, n_extra):
        np.divide(phi_batch(pp.P, *s.T), scale, out=vals[i:i + len(s)])
        i += len(s)
    return vals


def _region_chunks(pp: PoleParam, rng: np.random.Generator, n_samples: int, n_extra: int):
    """The parameter rows of ``_region_values``, block by block, in chunks of
    at most ``REGION_CHUNK`` rows, each formed when it is asked for.

    Each polydisk chunk is one stream-order ``sample_polydisk`` draw, so
    ``REGION_CHUNK`` fixes the bytes of clouds of more samples than that.
    The all-boundary slice follows, drawn a chunk at a time, and the
    rotation slice's chunk from row k is formed from ``np.arange(k, k + m)``.
    """
    for k in range(0, n_samples, REGION_CHUNK):
        yield sample_polydisk(rng, min(REGION_CHUNK, n_samples - k))
    for k in range(0, n_extra, REGION_CHUNK):
        m = min(REGION_CHUNK, n_extra - k)
        yield np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(m, 3)))
    p2 = pp.p**2
    for k in range(0, n_extra, REGION_CHUNK):
        zetas = np.exp(2j * np.pi * np.arange(k, min(k + REGION_CHUNK, n_extra)) / n_extra)
        sig_rot = np.zeros((zetas.size, 3), dtype=np.complex128)
        sig_rot[:, 0] = (zetas - p2) / (1.0 - p2 * zetas)
        yield sig_rot


def _binned_boundary(points: np.ndarray) -> np.ndarray:
    """The farthest point from ``points.mean()`` in each occupied one of
    ``REGION_BINS`` angle bins, the first index on ties, in bin order and
    closed by its first vertex.

    One pass over ``REGION_CHUNK`` slices keeps each bin's farthest radius
    and its index so far; a later chunk takes a bin only with a strictly
    larger radius, so the earliest of equal radii stays.
    """
    center = points.mean()
    far = np.full(REGION_BINS, -1.0)  # -1: no point in the bin yet
    first = np.zeros(REGION_BINS, dtype=np.intp)
    for k in range(0, points.size, REGION_CHUNK):
        rel = points[k:k + REGION_CHUNK] - center
        ang = np.mod(np.angle(rel), 2.0 * np.pi)
        bins = np.minimum((ang / (2.0 * np.pi) * REGION_BINS).astype(int), REGION_BINS - 1)
        # the farthest point of each bin in the chunk, first index on ties
        r = np.abs(rel)
        chunk_far = np.full(REGION_BINS, -1.0)
        np.maximum.at(chunk_far, bins, r)
        reach = np.flatnonzero(r == chunk_far[bins])
        hit, at = np.unique(bins[reach], return_index=True)
        farther = chunk_far[hit] > far[hit]
        hit = hit[farther]
        far[hit], first[hit] = chunk_far[hit], k + reach[at[farther]]
    out = points[first[far >= 0.0]]
    return np.append(out, out[0])


def sample_omega_boundary(pp: PoleParam, n_theta: int) -> RegionSample:
    """Closed boundary polyline of the rotation-family region Omega_p.

    The polyline is filled in place, ``omega_map`` taken on a
    ``REGION_CHUNK`` slice of the e^(i theta) at a time."""
    if n_theta < OMEGA_MIN_POINTS:
        raise InvalidInput(f"n_theta must be >= {OMEGA_MIN_POINTS}")
    bdry = np.empty(n_theta + 1, dtype=np.complex128)
    for k in range(0, n_theta, REGION_CHUNK):
        th = 2.0 * np.pi * np.arange(k, min(k + REGION_CHUNK, n_theta)) / n_theta
        bdry[k:k + th.size] = omega_map(pp, np.exp(1j * th))
    bdry[-1] = bdry[0]
    return RegionSample(points=bdry[:-1], boundary=bdry,
                        meta={"p": pp.p, "n_theta": n_theta})
