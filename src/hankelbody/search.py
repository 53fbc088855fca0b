"""Global search for the extremal Hankel modulus and region sampling.

The functional is affine in the third polydisk parameter, so its supremum
sits on |sigma2| = 1 and can be taken analytically; the coarse sweep then
runs over a polar grid in (sigma0, sigma1) only, followed by Nelder-Mead
refinement in all six real parameters with moduli clamped to [0,1].  The
refinement runs every start in lockstep with numpy (``minimize``), at most
three objective calls per simplex step, each covering all starts, and its
result is bit-identical to scipy's Nelder-Mead run start by start.
Everything is deterministic for a fixed (grid, refine_iters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .coeffbody import ParamTriple
from .disk import PoleParam
from .errors import DegenerateBoundary, InvalidInput
from .hankel import lower_bound_M, omega_map, upper_bound_M
from .kernels import best_sigma2, phi_batch, phi_sigma2_max

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


@dataclass(frozen=True)
class RegionSample:
    """Point cloud plus an ordered closed boundary polyline."""

    points: np.ndarray
    boundary: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExtremalReport:
    p: float
    m_estimate: float
    arg_sigma: ParamTriple
    lower: float
    upper: float
    iterations: int
    grid: int


def _polar_grid(n_angle: int) -> np.ndarray:
    """Distinct points {r e^(i theta)} including the origin and |z| = 1."""
    mods = np.linspace(0.0, 1.0, GRID_RADII)
    angles = 2.0 * np.pi * np.arange(n_angle) / n_angle
    pts = np.outer(mods[1:], np.exp(1j * angles)).ravel()
    return np.concatenate(([0.0 + 0.0j], pts))


def _sigma_rows(X: np.ndarray) -> np.ndarray:
    """(n, 3) polydisk points from (n, 6) rows of (modulus, argument) pairs,
    moduli clamped to [0, 1]."""
    return np.clip(X[:, 0::2], 0.0, 1.0) * np.exp(1j * X[:, 1::2])


def _negative_modulus(P: float, X: np.ndarray) -> np.ndarray:
    """-|Phi| at the (n, 6) rows of ``X``, the objective of the refinement."""
    sig = _sigma_rows(X)
    z = phi_batch(P, sig[:, 0], sig[:, 1], sig[:, 2])
    # hypot, not np.abs: numpy's vectorized complex abs can differ from the
    # scalar abs in the last ulp, and the simplex compares these values
    return -np.hypot(z.real, z.imag)


# the refinement's convergence tolerances, scipy's ``xatol`` and ``fatol``
_XATOL = 1e-12
_FATOL = 1e-14


class SimplexResult(NamedTuple):
    """Per-start outcome of ``minimize``, one row or entry per start."""

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray


def minimize(fun, X0: np.ndarray, maxiter: int) -> SimplexResult:
    """Nelder-Mead from every row of ``X0`` at once, each row as scipy runs it alone.

    A transcription of scipy 1.17's ``_minimize_neldermead`` (non-adaptive,
    no bounds, ``maxfev`` unset, ``xatol=_XATOL``, ``fatol=_FATOL``) that
    advances all starts in lockstep: each step evaluates ``fun``, which maps
    an (m, d) array to m values, once for the rows that need that step.
    Every start gets the same arithmetic, the same comparisons and the same
    ``argsort`` as in its own scipy run, so ``x``, ``fun``, ``nit`` and
    ``nfev`` are bit-identical to it.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    n, N = X0.shape
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    k = np.arange(N)
    sim = np.repeat(X0[:, None, :], N + 1, axis=1)
    diag = X0[:, k]
    sim[:, k + 1, k] = np.where(diag != 0, (1 + nonzdelt) * diag, zdelt)
    fsim = fun(sim.reshape(-1, N)).reshape(n, N + 1)
    nfev = np.full(n, N + 1)
    nit = np.ones(n, dtype=int)
    for _ in range(2):  # scipy sorts the first simplex twice; argsort may move ties
        sim, fsim = _sorted_simplex(sim, fsim)

    live = np.flatnonzero(nit < maxiter)
    while live.size:
        S, F = sim[live], fsim[live]
        converged = ((np.abs(S[:, 1:] - S[:, :1]).max(axis=(1, 2)) <= _XATOL)
                     & (np.abs(F[:, :1] - F[:, 1:]).max(axis=1) <= _FATOL))
        live, S, F = live[~converged], S[~converged], F[~converged]
        if not live.size:
            break
        # the centroid as scipy's row-by-row np.add.reduce forms it
        xbar = S[:, 0]
        for j in range(1, N):
            xbar = xbar + S[:, j]
        xbar = xbar / N
        worst = S[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = fun(xr)
        expand = fxr < F[:, 0]
        accept = ~expand & (fxr < F[:, -2])
        outside = ~expand & ~accept & (fxr < F[:, -1])
        inside = ~expand & ~accept & ~outside
        second = ~accept
        x2 = np.where(expand[:, None], (1 + rho * chi) * xbar - rho * chi * worst,
                      np.where(outside[:, None], (1 + psi * rho) * xbar - psi * rho * worst,
                               (1 - psi) * xbar + psi * worst))
        f2 = np.full_like(fxr, np.nan)
        if second.any():
            f2[second] = fun(x2[second])
        take_r = accept | (expand & ~(f2 < fxr))
        take_2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < F[:, -1]))
        shrink = second & ~take_r & ~take_2
        S[take_r, -1], F[take_r, -1] = xr[take_r], fxr[take_r]
        S[take_2, -1], F[take_2, -1] = x2[take_2], f2[take_2]
        if shrink.any():
            best = S[shrink, :1]
            S[shrink, 1:] = best + sigma * (S[shrink, 1:] - best)
            F[shrink, 1:] = fun(S[shrink, 1:].reshape(-1, N)).reshape(-1, N)
        nfev[live] += 1 + second + N * shrink
        nit[live] += 1
        sim[live], fsim[live] = _sorted_simplex(S, F)
        live = live[nit[live] < maxiter]

    return SimplexResult(x=sim[:, 0], fun=fsim.min(axis=1), nit=nit, nfev=nfev)


def _sorted_simplex(S: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each start's vertices in ascending order of value, by ``np.argsort`` as scipy sorts."""
    ind = np.argsort(F, axis=1)
    rows = np.arange(len(F))[:, None]
    return S[rows, ind], F[rows, ind]


def estimate_M(pp: PoleParam, grid: int = 24, refine_iters: int = 200,
               seed: int = 1) -> ExtremalReport:
    """Estimate sup |H| over the polydisk by grid sweep plus simplex refinement.

    ``grid`` is the number of angular samples per parameter, with
    ``GRID_RADII`` radial ones.  The best ``GRID_STARTS`` grid points, a
    start on the real slice and four seeded random ones seed Nelder-Mead
    runs capped at ``refine_iters`` iterations, run in lockstep by
    ``minimize``.
    """
    if grid < MIN_GRID:
        raise InvalidInput(f"grid must be >= {MIN_GRID}")
    if refine_iters < 0:
        raise InvalidInput("refine_iters must be >= 0")
    P = pp.P
    scale = 18.0 * P**3

    pts = _polar_grid(grid)
    # the sigma0-only factors of Phi are formed once and broadcast over sigma1
    vals = phi_sigma2_max(P, pts[:, None], pts[None, :]).ravel()
    s0 = np.repeat(pts, pts.size)
    s1 = np.tile(pts, pts.size)

    # deterministic ordering: descending value, ties broken lexicographically
    order = np.lexsort((s1.imag, s1.real, s0.imag, s0.real, -vals))
    best_idx = order[:GRID_STARTS]
    best_val = float(vals[best_idx[0]])
    b0, b1 = complex(s0[best_idx[0]]), complex(s1[best_idx[0]])
    best_sigma = ParamTriple(b0, b1, best_sigma2(P, b0, b1))

    # dedicated fine scan along the real slice (t, -1, *): the extremal value
    # can sit on a bump narrower than the polar grid step when p is near 1
    ts = np.linspace(0.0, 1.0, 4097)
    slice_vals = phi_sigma2_max(P, ts.astype(np.complex128),
                                np.full(ts.size, -1.0 + 0.0j))
    j = int(np.argmax(slice_vals))
    t_star = float(ts[j])
    if float(slice_vals[j]) > best_val:
        best_val = float(slice_vals[j])
        best_sigma = ParamTriple(t_star + 0.0j, -1.0 + 0.0j,
                                 best_sigma2(P, t_star + 0.0j, -1.0 + 0.0j))

    rng = np.random.default_rng(seed)
    extra = rng.uniform(0.0, 1.0, size=(4, 6))  # a few seeded random starts

    starts = [[t_star, 0.0, 1.0, np.pi, 1.0, 0.0]]
    for i in best_idx:
        a, b = complex(s0[i]), complex(s1[i])
        c = best_sigma2(P, a, b)
        starts.append([abs(a), float(np.angle(a)), abs(b), float(np.angle(b)),
                       abs(c), float(np.angle(c))])
    for row in extra:
        starts.append([row[0], 2 * np.pi * row[1], row[2], 2 * np.pi * row[3],
                       row[4], 2 * np.pi * row[5]])

    total_iters = 0
    if refine_iters > 0:
        res = minimize(partial(_negative_modulus, P), np.array(starts), refine_iters)
        total_iters = int(res.nit.sum())
        for x, f in zip(res.x, res.fun):
            if -float(f) > best_val:
                best_val = -float(f)
                best_sigma = ParamTriple(*map(complex, _sigma_rows(x[None])[0]))

    return ExtremalReport(
        p=pp.p,
        m_estimate=best_val / scale,
        arg_sigma=best_sigma,
        lower=lower_bound_M(pp),
        upper=upper_bound_M(pp),
        iterations=total_iters,
        grid=grid,
    )


def sample_polydisk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Area-uniform polydisk samples (n, 3), a ``BOUNDARY_RATE`` share of moduli set to 1."""
    r = np.sqrt(rng.uniform(0.0, 1.0, size=(n, 3)))
    th = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
    on_boundary = rng.uniform(size=(n, 3)) < BOUNDARY_RATE
    r = np.where(on_boundary, 1.0, r)
    return r * np.exp(1j * th)


def sample_region_H(pp: PoleParam, n_samples: int = 1000, seed: int = 1) -> RegionSample:
    """Point cloud of H values over quasi-random polydisk parameters.

    The boundary field holds direction-binned radial maxima around the
    cloud centroid; the region is not assumed convex, so no hull is taken.
    """
    if n_samples < 1:
        raise InvalidInput("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    sig = sample_polydisk(rng, n_samples)
    # dedicated all-boundary slice plus the rotation-family slice
    n_extra = max(n_samples // 4, 8)
    th = rng.uniform(0.0, 2.0 * np.pi, size=(n_extra, 3))
    sig_bdry = np.exp(1j * th)
    p2 = pp.p**2
    zetas = np.exp(2j * np.pi * np.arange(n_extra) / n_extra)
    sig_rot = np.column_stack([(zetas - p2) / (1.0 - p2 * zetas),
                               np.zeros(n_extra, complex), np.zeros(n_extra, complex)])
    sig = np.vstack([sig, sig_bdry, sig_rot])
    vals = phi_batch(pp.P, sig[:, 0], sig[:, 1], sig[:, 2]) / (18.0 * pp.P**3)
    boundary = _binned_boundary(vals)
    return RegionSample(points=vals, boundary=boundary,
                        meta={"p": pp.p, "n_samples": n_samples, "seed": seed})


def _binned_boundary(points: np.ndarray, n_bins: int = REGION_BINS) -> np.ndarray:
    center = points.mean()
    rel = points - center
    ang = np.mod(np.angle(rel), 2.0 * np.pi)
    bins = np.minimum((ang / (2.0 * np.pi) * n_bins).astype(int), n_bins - 1)
    # the farthest point of each occupied bin, first index on ties
    order = np.lexsort((-np.abs(rel), bins))
    _, first = np.unique(bins[order], return_index=True)
    out = points[order[first]]
    return np.append(out, out[0])


def sample_omega_boundary(pp: PoleParam, n_theta: int = 512) -> RegionSample:
    """Closed boundary polyline of the rotation-family region Omega_p."""
    if n_theta < OMEGA_MIN_POINTS:
        raise InvalidInput(f"n_theta must be >= {OMEGA_MIN_POINTS}")
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    bdry = omega_map(pp, np.exp(1j * th))
    bdry = np.concatenate([bdry, bdry[:1]])
    return RegionSample(points=bdry[:-1], boundary=bdry,
                        meta={"p": pp.p, "n_theta": n_theta})


def contains(region: RegionSample, z, tol: float = 1e-9):
    """Winding-number membership test against the closed boundary polyline.

    Returns "inside", "boundary" (within tol of the polyline), or "outside"
    for a scalar z, and an array of them, shaped like z, for an array.
    """
    b = np.asarray(region.boundary, dtype=np.complex128)
    if np.unique(np.round(b, 12)).size < 3:
        raise DegenerateBoundary("boundary polyline needs >= 3 distinct points")
    z = np.asarray(z, dtype=np.complex128)[..., None]  # meets the vertex axis
    a, c = b[:-1], b[1:]
    # distance from z to each segment [a, c]
    seg = c - a
    L2 = np.abs(seg) ** 2
    t = np.clip(np.where(L2 > 0, ((z - a) * np.conj(seg)).real / np.where(L2 > 0, L2, 1.0), 0.0), 0.0, 1.0)
    dist = np.min(np.abs(a + t * seg - z), axis=-1)
    # winding number via summed argument increments; a z on a vertex is a
    # boundary point, whose nan increment the verdict never reads
    rel = b - z
    with np.errstate(divide="ignore", invalid="ignore"):
        dphi = np.angle(rel[..., 1:] / rel[..., :-1])
    wind = np.round(np.sum(dphi, axis=-1) / (2.0 * np.pi))
    verdict = np.where(dist <= tol, "boundary", np.where(wind != 0, "inside", "outside"))
    return verdict.item() if verdict.ndim == 0 else verdict


def check_omega_monotone(p_small: float, p_large: float, n_theta: int = 512,
                         tol: float = 1e-9) -> bool:
    """True iff the Omega boundary for p_large sits inside Omega for p_small."""
    if not 0.0 < p_small < p_large < 1.0:
        raise InvalidInput("need 0 < p_small < p_large < 1")
    outer = sample_omega_boundary(PoleParam(p_small), n_theta)
    inner = sample_omega_boundary(PoleParam(p_large), n_theta)
    return not np.any(contains(outer, inner.points, tol=tol) == "outside")


def hausdorff_distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Discrete symmetric Hausdorff distance between two nonempty point sets."""
    A = np.asarray(a, dtype=np.complex128)[:, None]
    B = np.asarray(b, dtype=np.complex128)[None, :]
    if not (A.size and B.size):
        raise InvalidInput("hausdorff_distance needs two nonempty point sets")
    D = np.abs(A - B)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))
