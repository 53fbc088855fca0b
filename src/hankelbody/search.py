"""Global search for the extremal Hankel modulus and region sampling.

The functional is affine in the third polydisk parameter, so its supremum
sits on |sigma2| = 1 and can be taken analytically; the coarse sweep then
runs over a polar grid in (sigma0, sigma1) only.  Nelder-Mead then refines
the same objective in the four real parameters of (sigma0, sigma1), moduli
clamped to [0,1], from the best grid points, seeded random points and a
start at the exact maximum of the real slice (t, -1, *).  The refinement
runs every start in lockstep with numpy (``minimize``): exactly one
objective call per simplex step, covering every live start's trial points
and shrunk vertices, and its result is bit-identical to scipy's Nelder-Mead
run start by start.  ``estimate_M_batch`` refines the starts of several p
in one such run, each start with the factors of its own P, as ``bounds``
does.  Everything is deterministic for a fixed (grid, refine_iters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .coeffbody import ParamTriple
from .disk import PoleParam
from .errors import InvalidInput
from .hankel import hp_numerator_coeffs, lower_bound_M, omega_map, upper_bound_M
from .kernels import best_sigma2, phi_batch, phi_factors, phi_sigma2_max

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
#: parameter rows per ``phi_batch`` call of ``sample_region_H``, and per
#: block of its polydisk samples; each call holds a few complex temporaries
#: of the chunk's length
REGION_CHUNK = 2**13


@dataclass(frozen=True)
class RegionSample:
    """Point cloud plus an ordered closed boundary polyline.

    The H-cloud's ``boundary`` is an export only, not a membership test: some
    of its own cloud's points lie outside it (ROADMAP item 7)."""

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
    """(n, 2) points (sigma0, sigma1) from (n, 4) rows of (modulus, argument)
    pairs, moduli clamped to [0, 1]."""
    return np.minimum(np.maximum(X[:, 0::2], 0.0), 1.0) * np.exp(1j * X[:, 1::2])


def _negative_modulus(P, X: np.ndarray) -> np.ndarray:
    """-sup over sigma2 of |Phi| at the (n, 4) rows of ``X``, the objective of
    the refinement and, as ``phi_sigma2_max``, of the grid sweep; ``P`` is a
    float or its ``phi_factors``, as ``phi_sigma2_max`` takes it."""
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


def _grid_starts(P: float, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma0, sigma1) of the ``GRID_STARTS`` largest ``phi_sigma2_max``
    values on the polar grid with ``grid`` angles, in descending order of
    value, ties broken by ascending (Re, Im) of sigma0, then of sigma1.

    Only the values at least as large as the ``GRID_STARTS``-th largest, ties
    included, can come first, so only they are sorted.
    """
    pts = _polar_grid(grid)
    # the sigma0-only factors of Phi are formed once and broadcast over sigma1
    vals = phi_sigma2_max(P, pts[:, None], pts[None, :]).ravel()
    top = vals.size - GRID_STARTS
    cand = np.flatnonzero(vals >= np.partition(vals, top)[top])
    s0, s1 = pts[cand // pts.size], pts[cand % pts.size]
    best = np.lexsort((s1.imag, s1.real, s0.imag, s0.real, -vals[cand]))[:GRID_STARTS]
    return s0[best], s1[best]


# the refinement's convergence tolerances, scipy's ``xatol`` and ``fatol``
_XATOL = 1e-12
_FATOL = 1e-14
# scipy's trial points a*xbar - b*worst, one (a, b) pair each: reflection
# (rho = 1), expansion (chi = 2), outside and inside contraction (psi = 1/2);
# the last is scipy's (1 - psi)*xbar + psi*worst, as x - (-y) is x + y
_TRIAL_A = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
_TRIAL_B = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]
# a step's outcomes, each but the shrink named by the trial point it takes:
# the reflection taken outright, the expansion, the outside and the inside
# contraction, the reflection after a rejected expansion, and the shrink
_TAKES = (0, 1, 2, 3, 0)
_SHRINK = len(_TAKES)


class SimplexResult(NamedTuple):
    """Per-start outcome of ``minimize``, one row or entry per start."""

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray


def minimize(fun, X0: np.ndarray, maxiter: int, args: np.ndarray) -> SimplexResult:
    """Nelder-Mead from every row of ``X0`` at once, each row as scipy runs it alone.

    A transcription of scipy 1.17's ``_minimize_neldermead`` (non-adaptive,
    no bounds, ``maxfev`` unset, ``xatol=_XATOL``, ``fatol=_FATOL``) that
    advances all starts in lockstep.  ``args`` is a (q, n) array that holds
    a column of arguments per start (q may be 0), and ``fun(A, X)`` maps an
    (m, d) array ``X`` to m values, column j of ``A`` belonging to row j of
    ``X``, as a ``functools.partial`` binding them would be; so starts of
    different objectives share one run.  Each step makes one call,
    on the four trial points of every live start (``_TRIAL_A``,
    ``_TRIAL_B``) and the N vertices its shrink would give, which are known
    before the step's outcome; a shrink makes no call of its own.  Every
    start gets the same arithmetic, the same comparisons and the same
    ``argsort`` as in its own scipy run, so ``x``, ``fun``, ``nit`` and
    ``nfev`` are bit-identical to it; ``nfev`` counts the evaluations scipy
    makes, not the points.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    n, N = X0.shape
    nonzdelt, zdelt = 0.05, 0.00025
    k = np.arange(N)
    # the simplices vertex by vertex: sim[j, i] is vertex j of start i
    sim = np.repeat(X0[None], N + 1, axis=0)
    diag = X0[:, k]
    sim[k + 1, :, k] = np.where(diag != 0, (1 + nonzdelt) * diag, zdelt).T
    fsim = fun(np.tile(args, N + 1), sim.reshape(-1, N)).reshape(N + 1, n)
    nfev = np.full(n, N + 1)
    nit = np.ones(n, dtype=int)
    every = np.indices(fsim.shape)[0]
    for _ in range(2):  # scipy sorts the first simplex twice; argsort may move ties
        sim, fsim = _sorted_simplex(sim, fsim, every)

    # per outcome, where each vertex of the next simplex comes from in the
    # stack of the N + 1 vertices, the 4 trial points and the N shrunk
    # vertices, and how many evaluations scipy makes: the reflection, one
    # more trial unless it takes the reflection outright, N on a shrink
    src_of = np.array([[*range(N), N + 1 + t] for t in _TAKES]
                      + [[0, *range(N + 5, 2 * N + 5)]])
    fev_of = np.array([1, 2, 2, 2, 2, 2 + N])
    # the live starts' simplices, values, evaluation counts and arguments; a
    # start leaves them, into sim, fsim and nfev, when it converges
    live, S, F, fev, A = np.arange(n), sim, fsim, nfev, args
    A_step = np.tile(A, 4 + N)  # the arguments of a step's (4 + N, live) points
    step = 1
    while step < maxiter:
        conv = np.abs(F[1:] - F[:1]).max(axis=0) <= _FATOL
        if conv.any():
            conv[conv] = np.abs(S[1:, conv] - S[:1, conv]).max(axis=(0, 2)) <= _XATOL
            if conv.any():
                done, keep = live[conv], ~conv
                sim[:, done], fsim[:, done], nfev[done], nit[done] = S[:, conv], F[:, conv], fev[conv], step
                live, S, F, fev, A = live[keep], S[:, keep], F[:, keep], fev[keep], A[:, keep]
                if not live.size:
                    break
                A_step = np.tile(A, 4 + N)
        # the centroid as scipy's row-by-row np.add.reduce forms it
        xbar = S[0]
        for j in range(1, N):
            xbar = xbar + S[j]
        xbar = xbar / N
        # a shrink (sigma = 1/2) halves every vertex's distance to the best,
        # the old worst included
        best = S[:1]
        cand = np.concatenate((S, _TRIAL_A * xbar - _TRIAL_B * S[-1], best + 0.5 * (S[1:] - best)))
        fcand = np.concatenate((F, fun(A_step, cand[N + 1:].reshape(-1, N)).reshape(4 + N, -1)))
        # scipy's comparisons, in scipy's order
        fxr, fxe, fxc, fxcc = fcand[N + 1:N + 5]
        outcome = np.where(fxr < F[0], np.where(fxe < fxr, 1, 4),
                           np.where(fxr < F[-2], 0,
                                    np.where(fxr < F[-1], np.where(fxc <= fxr, 2, _SHRINK),
                                             np.where(fxcc < F[-1], 3, _SHRINK))))
        fev = fev + fev_of[outcome]
        step += 1
        S, F = _sorted_simplex(cand, fcand, src_of[outcome].T)
    sim[:, live], fsim[:, live], nfev[live], nit[live] = S, F, fev, step

    return SimplexResult(x=sim[0], fun=fsim.min(axis=0), nit=nit, nfev=nfev)


def _sorted_simplex(S: np.ndarray, F: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplices whose vertex j of start i is ``S[src[j, i], i]``, each
    start's vertices in ascending order of value, by ``argsort`` as scipy sorts."""
    cols = np.arange(F.shape[1])
    F = F[src, cols]
    ind = F.argsort(axis=0)
    return S[src[ind, cols], cols], F[ind, cols]


def estimate_M(pp: PoleParam, grid: int = 24, refine_iters: int = 200,
               seed: int = 1) -> ExtremalReport:
    """Estimate sup |H| over the polydisk by grid sweep plus simplex refinement.

    sigma2 is taken in closed form throughout (``phi_sigma2_max``), so the
    search runs over (sigma0, sigma1).  ``grid`` is the number of angular
    samples per parameter, with ``GRID_RADII`` radial ones.  Nelder-Mead
    runs capped at ``refine_iters`` iterations, run in lockstep by
    ``minimize``, start from the exact maximum of the real slice (t, -1),
    the best ``GRID_STARTS`` grid points and four seeded random points; with
    ``refine_iters=0`` the starts are only evaluated.  The best point found
    is reported with its canonical ``best_sigma2``.
    """
    return estimate_M_batch([pp], grid, refine_iters, seed)[0]


def estimate_M_batch(pps: Sequence[PoleParam], grid: int, refine_iters: int,
                     seed: int) -> list[ExtremalReport]:
    """``estimate_M`` at each of ``pps``, one report each, bit-identical to a
    call per p: the refinement runs the starts of every p in one ``minimize``,
    each start with the ``phi_factors`` of its own P."""
    if not pps:
        raise InvalidInput("need at least one p")
    if grid < MIN_GRID:
        raise InvalidInput(f"grid must be >= {MIN_GRID}")
    if refine_iters < 0:
        raise InvalidInput("refine_iters must be >= 0")
    if seed < 0:
        raise InvalidInput("seed must be >= 0")

    rng = np.random.default_rng(seed)
    # optimizer starts, drawn modulus-uniform: not area-uniform polydisk samples
    rand = rng.uniform(size=(2, 4)) * np.exp(2j * np.pi * rng.uniform(size=(2, 4)))
    starts = []
    for pp in pps:
        g0, g1 = _grid_starts(pp.P, grid)
        z0 = np.concatenate(([_slice_argmax(pp.P)], g0, rand[0]))
        z1 = np.concatenate(([-1.0], g1, rand[1]))
        starts.append(np.column_stack([np.abs(z0), np.angle(z0), np.abs(z1), np.angle(z1)]))
    X0 = np.concatenate(starts)
    n_starts = len(starts[0])
    # one column of factors per start, each formed from its own float P
    A = np.repeat(np.array([phi_factors(pp.P) for pp in pps]).T, n_starts, axis=1)

    if refine_iters > 0:
        res = minimize(_negative_modulus, X0, refine_iters, A)
        X, F, nit = res.x, res.fun, res.nit
    else:
        X, F, nit = X0, _negative_modulus(A, X0), np.zeros(len(X0), dtype=int)
    X, F = X.reshape(len(pps), n_starts, -1), F.reshape(len(pps), n_starts)
    iterations = nit.reshape(len(pps), n_starts).sum(axis=1)

    reports = []
    for pp, x, f, its in zip(pps, X, F, iterations):
        k = int(np.argmin(f))
        sig0, sig1 = map(complex, _sigma_rows(x[k:k + 1])[0])
        P = pp.P
        reports.append(ExtremalReport(
            p=pp.p,
            m_estimate=-float(f[k]) / (18.0 * P**3),
            arg_sigma=ParamTriple(sig0, sig1, best_sigma2(P, sig0, sig1)),
            lower=lower_bound_M(pp),
            upper=upper_bound_M(pp),
            iterations=int(its),
            grid=grid,
        ))
    return reports


def sample_polydisk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Area-uniform polydisk samples (n, 3), a ``BOUNDARY_RATE`` share of moduli set to 1."""
    (z,) = _polydisk_blocks(rng, n, max(n, 1))
    return z


def _polydisk_blocks(rng: np.random.Generator, n: int, block: int):
    """``sample_polydisk(rng, n)`` as consecutive row blocks of at most
    ``block`` rows, at least one, with the same draws in the same order.

    The moduli and the angles are drawn whole; the boundary-rate uniforms
    and the complex rows are formed a block at a time, in place, when the
    block is asked for.  Float uniforms take one draw each, so drawing them
    a block at a time leaves the generator where one draw of all would.
    """
    r = rng.uniform(0.0, 1.0, size=(n, 3))
    np.sqrt(r, out=r)
    th = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
    for k in range(0, max(n, 1), block):
        rk, tk = r[k:k + block], th[k:k + block]
        rk[rng.uniform(size=rk.shape) < BOUNDARY_RATE] = 1.0
        z = np.multiply(1j, tk, out=np.empty(rk.shape, dtype=np.complex128))
        np.exp(z, out=z)
        yield np.multiply(rk, z, out=z)


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

    Each block is read in chunks of at most ``REGION_CHUNK`` rows, one
    ``phi_batch`` call each, into the one array of values; the polydisk
    samples are formed a chunk at a time, so no (n, 3) array of them is held.
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
    at most ``REGION_CHUNK`` rows; the all-boundary slice is drawn after the
    last polydisk chunk."""
    yield from _polydisk_blocks(rng, n_samples, REGION_CHUNK)
    sig_bdry = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n_extra, 3)))
    p2 = pp.p**2
    zetas = np.exp(2j * np.pi * np.arange(n_extra) / n_extra)
    sig_rot = np.zeros((n_extra, 3), dtype=np.complex128)
    sig_rot[:, 0] = (zetas - p2) / (1.0 - p2 * zetas)
    for block in (sig_bdry, sig_rot):
        for k in range(0, n_extra, REGION_CHUNK):
            yield block[k:k + REGION_CHUNK]


def _binned_boundary(points: np.ndarray) -> np.ndarray:
    center = points.mean()
    rel = points - center
    ang = np.mod(np.angle(rel), 2.0 * np.pi)
    bins = np.minimum((ang / (2.0 * np.pi) * REGION_BINS).astype(int), REGION_BINS - 1)
    # the farthest point of each occupied bin, first index on ties
    r = np.abs(rel)
    farthest = np.zeros(REGION_BINS)
    np.maximum.at(farthest, bins, r)
    reach = np.flatnonzero(r == farthest[bins])
    _, first = np.unique(bins[reach], return_index=True)
    out = points[reach[first]]
    return np.append(out, out[0])


def sample_omega_boundary(pp: PoleParam, n_theta: int) -> RegionSample:
    """Closed boundary polyline of the rotation-family region Omega_p."""
    if n_theta < OMEGA_MIN_POINTS:
        raise InvalidInput(f"n_theta must be >= {OMEGA_MIN_POINTS}")
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    bdry = omega_map(pp, np.exp(1j * th))
    bdry = np.concatenate([bdry, bdry[:1]])
    return RegionSample(points=bdry[:-1], boundary=bdry,
                        meta={"p": pp.p, "n_theta": n_theta})

