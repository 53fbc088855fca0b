"""Global search for the extremal Hankel modulus and region sampling.

The functional is affine in the third polydisk parameter, so its supremum
sits on |sigma2| = 1 and can be taken analytically; the coarse sweep then
runs over a polar grid in (sigma0, sigma1) only.  It skips every sigma0
row that cannot hold one of the best ``GRID_STARTS`` grid values: with Phi =
T0 + T1 s1 + T2 s1^2 + C (1 - |s1|^2) s2, the largest over the grid's ring
radii r of |T0| + |T1| r + |T2| r^2 + |C| (1 - r^2) bounds each row from
sigma0 alone.  The bound is at least half of |T0| + |T1| + |T2| + |C|, so
rounding is about 20 ulp of it and a 1e-12 relative widening covers it; the
rows swept give the full sweep's values bit for bit, so the starts are the
full sweep's.  At the default grid 24 about 16 of the 169 rows are swept:
0.15 ms in place of 1.07 ms, and ``estimate_M`` takes 0.35 ms in place of
1.44 ms (2-core Xeon VM, numpy 2.4.6, best of 7 ``timeit`` repeats at
p = 0.5).

The estimate is the best of the starts, each evaluated once: the exact
maximum of the real slice (t, -1, *), the best grid points and seeded
random points.  Refinement is opt-in (``refine_iters > 0``): a compass
search then refines the same objective in the four real parameters of
(sigma0, sigma1), moduli clamped to [0,1], from those starts.  It runs
every start in lockstep with numpy (``minimize``): exactly one objective
call per step, on the points one step along each axis, both ways, around
every live start.  Each search is at one p.  Everything is deterministic
for a fixed (grid, refine_iters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coeffbody import ParamTriple
from .disk import PoleParam
from .errors import InvalidInput
from .hankel import hp_numerator_coeffs, omega_map
from .kernels import best_sigma2, phi_batch, phi_sigma0_terms, phi_sigma2_max

#: angular bins of the H-cloud's boundary polyline
REGION_BINS = 256
#: fewest angular samples per parameter in the grid sweep
MIN_GRID = 8
#: fewest points on the Omega_p boundary polyline
OMEGA_MIN_POINTS = 16
#: radial samples of the grid sweep, the origin and |z| = 1 included
GRID_RADII = 8
#: best grid points that seed the refinement
GRID_STARTS = 16
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
    """What one search computed: the best modulus ``m_estimate`` of H at p,
    the polydisk point ``arg_sigma`` where it was found, and the compass-search
    steps of all starts together, 0 unless the search refined.  The
    paper's closed-form bounds on M(p) are ``hankel.lower_bound_M`` and
    ``hankel.upper_bound_M``."""

    p: float
    m_estimate: float
    arg_sigma: ParamTriple
    iterations: int


def _polar_grid(n_angle: int) -> np.ndarray:
    """Distinct points {r e^(i theta)} including the origin and |z| = 1."""
    mods = np.linspace(0.0, 1.0, GRID_RADII)
    angles = 2.0 * np.pi * np.arange(n_angle) / n_angle
    pts = np.outer(mods[1:], np.exp(1j * angles)).ravel()
    return np.concatenate(([0.0 + 0.0j], pts))


def _sigma_rows(X: np.ndarray) -> np.ndarray:
    """(n, 2) points (sigma0, sigma1) from (n, 4) rows of (modulus, argument)
    pairs, moduli clamped to [0, 1]."""
    return np.minimum(np.maximum(X[:, 0::2], 0.0), 1.0) * np.exp(1j * X[:, 1::2])


def _negative_modulus(P: float, X: np.ndarray) -> np.ndarray:
    """-sup over sigma2 of |Phi| at the (n, 4) rows of ``X``, the objective of
    the refinement and, as ``phi_sigma2_max``, of the grid sweep."""
    sig = _sigma_rows(X)
    return -phi_sigma2_max(P, sig[:, 0], sig[:, 1])


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


def _row_bounds(P: float, pts: np.ndarray) -> np.ndarray:
    """Per sigma0 in ``pts``, the largest over the ``GRID_RADII`` ring radii r
    of |T0| + |T1| r + |T2| r^2 + |C| (1 - r^2): a majorant of every
    ``phi_sigma2_max`` value with that sigma0 and a sigma1 of modulus r."""
    r = np.linspace(0.0, 1.0, GRID_RADII)[:, None]
    T0, T1, T2, C = map(np.abs, phi_sigma0_terms(P, pts))
    return (T0 + T1 * r + T2 * (r * r) + C * (1.0 - r * r)).max(axis=0)


#: relative widening of ``_row_bounds`` before a row is pruned: the bound
#: is at least half of |T0| + |T1| + |T2| + |C| (its r = 0 and r = 1 rings),
#: so the rounding of the bound and of the values is about 20 ulp of it
_BOUND_SLACK = 1e-12


def _grid_starts(P: float, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma0, sigma1) of the ``GRID_STARTS`` largest ``phi_sigma2_max``
    values on the polar grid with ``grid`` angles, in descending order of
    value, ties broken by ascending (Re, Im) of sigma0, then of sigma1.

    Only the sigma0 rows that can hold such a value are swept.  The
    ``GRID_STARTS`` rows of largest ``_row_bounds`` go first, in one
    broadcast call; then, in at most one more, every other row whose bound,
    widened by ``_BOUND_SLACK``, reaches the ``GRID_STARTS``-th largest
    value swept so far.  A row left out is below that cut everywhere, and a
    swept row's values are the full sweep's bit for bit, so the starts are
    those of the full ((GRID_RADII - 1) grid + 1)^2 sweep.  Only the values
    at least as large as the cut, ties included, are sorted.
    """
    pts = _polar_grid(grid)
    bound = _row_bounds(P, pts)
    order = np.argsort(-bound, kind="stable")
    rows, rest = order[:GRID_STARTS], order[GRID_STARTS:]
    # the sigma0-only factors of Phi are formed once a row and broadcast over sigma1
    vals = phi_sigma2_max(P, pts[rows, None], pts[None, :]).ravel()
    top = vals.size - GRID_STARTS
    cut = np.partition(vals, top)[top]
    more = rest[bound[rest] * (1.0 + _BOUND_SLACK) >= cut]
    if more.size:
        # the cut can only rise, so the values above the old one still hold the starts
        rows = np.concatenate((rows, more))
        vals = np.concatenate((vals, phi_sigma2_max(P, pts[more, None], pts[None, :]).ravel()))
    cand = np.flatnonzero(vals >= cut)
    s0, s1 = pts[rows[cand // pts.size]], pts[cand % pts.size]
    best = np.lexsort((s1.imag, s1.real, s0.imag, s0.real, -vals[cand]))[:GRID_STARTS]
    return s0[best], s1[best]


# the refinement's first step along each axis, and the step below which a
# start retires
_STEP0 = 0.05
_XATOL = 1e-12


class SearchResult(NamedTuple):
    """Per-start outcome of ``minimize``, one row or entry per start."""

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray


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


def estimate_M(pp: PoleParam, grid: int = 24, refine_iters: int = 0,
               seed: int = 1) -> ExtremalReport:
    """Estimate sup |H| over the polydisk as the best of a grid sweep's starts.

    sigma2 is taken in closed form throughout (``phi_sigma2_max``), so the
    search runs over (sigma0, sigma1).  ``grid`` is the number of angular
    samples per parameter, with ``GRID_RADII`` radial ones.  The starts are
    the exact maximum of the real slice (t, -1), the best ``GRID_STARTS``
    grid points and four seeded random points; with the default
    ``refine_iters=0`` each is only evaluated.  A positive ``refine_iters``
    caps the steps of a compass search from every start, run in lockstep by
    ``minimize``; on every p tested it gains no more than rounding over the
    best start.
    The best point found is reported with its canonical ``best_sigma2``.
    """
    if grid < MIN_GRID:
        raise InvalidInput(f"grid must be >= {MIN_GRID}")
    if refine_iters < 0:
        raise InvalidInput("refine_iters must be >= 0")
    if seed < 0:
        raise InvalidInput("seed must be >= 0")

    P = pp.P
    rng = np.random.default_rng(seed)
    # optimizer starts, drawn modulus-uniform: not area-uniform polydisk samples
    rand = rng.uniform(size=(2, 4)) * np.exp(2j * np.pi * rng.uniform(size=(2, 4)))
    g0, g1 = _grid_starts(P, grid)
    z0 = np.concatenate(([_slice_argmax(P)], g0, rand[0]))
    z1 = np.concatenate(([-1.0], g1, rand[1]))
    X0 = np.column_stack([np.abs(z0), np.angle(z0), np.abs(z1), np.angle(z1)])

    if refine_iters > 0:
        res = minimize(lambda X: _negative_modulus(P, X), X0, refine_iters)
        X, F, iterations = res.x, res.fun, int(res.nit.sum())
    else:
        X, F, iterations = X0, _negative_modulus(P, X0), 0
    k = int(np.argmin(F))
    sig0, sig1 = map(complex, _sigma_rows(X[k:k + 1])[0])
    return ExtremalReport(
        p=pp.p,
        m_estimate=-float(F[k]) / (18.0 * P**3),
        arg_sigma=ParamTriple(sig0, sig1, best_sigma2(P, sig0, sig1)),
        iterations=iterations,
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
