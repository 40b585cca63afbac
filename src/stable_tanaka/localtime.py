"""Local-time curves a -> L^a_T: mollified occupation and the kernel route.

A local-time estimate is an array of values over a grid of levels, one
per level, at the path's horizon T. Two curves estimate it:

* ``occupation_curve`` -- Riemann sum of rho_n(X_s - a) ds, the mollified
  occupation density;
* ``tanaka_curve`` -- F(X_T - a) - F(X_0 - a) - M^a_T, where the
  martingale part M sums compensated kernel increments over the recorded
  jumps, each read at its grid row. This needs the jump record, so only
  jump-decomposition paths qualify. ``martingale_part`` also stops at
  earlier horizons, all read off one walk over the path.

Every sum walks the points in chunks of a fixed size and adds each
chunk's row sum in chunk order, so a level's value does not depend on the
levels asked for with it: a one-level grid gives the same float. The
compensator Riemann sum and the jump sum of ``martingale_part`` run
through one loop over small tiles of levels by points. Over many levels
the occupation sum evaluates the mollifier only near its support: each
chunk is sorted once and searched per level, and the few terms found fill
an otherwise zero row. The compensator's interpolation table is built
once per (params, eps).

``occupation_formula_check`` closes the loop: integrating the occupation
curve against a test function must reproduce the direct time-integral of
that function along the path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .kernel import MollifierSpec, compensator_density, kernel_F
from .params import StableParams
from .pathsim import PathSample
from .spectral import ResolutionError, negative_moment_bound

__all__ = [
    "martingale_part",
    "occupation_formula_check",
    "occupation_curve",
    "tanaka_curve",
    "default_a_grid",
    "default_mollifier",
    "hat_function",
    "martingale_l2_bound",
]

# A tile of 2 x 8192 doubles is 128 KiB: it stays in L2, and its
# temporaries stay below glibc's 128 KiB mmap threshold, so they are not
# each served by a fresh mmap and faulted in page by page.
_TILE_LEVELS = 2
_TILE_POINTS = 8192
# the occupation walk sorts each chunk of points for this many levels or
# more; for fewer, whole rows cost less than the sort
_SORT_LEVELS = 16


def default_mollifier(eps: float) -> MollifierSpec:
    """The n = eps^(-1/2) tie between mollifier index and jump cutoff."""
    return MollifierSpec(max(1, round(eps ** -0.5)))


def hat_function(center: float, half_width: float):
    """Tent function: 1 at the center, 0 outside center +- half_width."""
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")

    def g(x):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, float) - center)
                          / half_width)

    return g


def _tiled_levels(levels, ends, tile, *columns):
    """Per-level sums of tile(levels, *columns) over each prefix columns[:end].

    ``tile(block, *chunks)`` maps a (k, 1) column of at most _TILE_LEVELS
    levels and chunks of at most _TILE_POINTS points to a (k, points)
    array of terms. Each row is reduced on its own and each level adds its
    chunks in point order, so its value is the same whichever levels share
    its tile. One walk serves every prefix: one that ends inside a chunk
    adds the head of that chunk's terms, the same floats in the same order
    as a walk that stopped there. ``ends`` is non-decreasing; the result
    has one row per end and one column per level.
    """
    ends = [int(end) for end in ends]
    out = np.zeros((len(ends), len(levels)))
    for start in range(0, len(levels), _TILE_LEVELS):
        block = levels[start:start + _TILE_LEVELS, None]
        cols = slice(start, start + len(block))
        total = np.zeros(len(block))
        for lo in range(0, ends[-1], _TILE_POINTS):
            hi = min(lo + _TILE_POINTS, ends[-1])
            terms = tile(block, *(c[lo:hi] for c in columns))
            full = terms.sum(axis=1)
            for j, end in enumerate(ends):
                if lo < end <= hi:
                    out[j, cols] = total + (
                        full if end == hi else terms[:, :end - lo].sum(axis=1))
            total += full
    return out


# ------------------------------------------------------------- occupation

def _reached(x, levels, reach):
    """Per level, the positions of the points of x within reach of it (and,
    where rounding blurs the edge, perhaps a few just beyond), or None
    where the whole row costs less: for fewer than _SORT_LEVELS levels,
    which cannot pay for the sort, and for a level that reaches over an
    eighth of the points, which costs more to gather than to sweep."""
    if len(levels) < _SORT_LEVELS:
        return [None] * len(levels)
    by_value = np.argsort(x)
    x_sorted = x[by_value]
    starts = np.searchsorted(x_sorted, levels - reach, side="left")
    stops = np.searchsorted(x_sorted, levels + reach, side="right")
    return [by_value[i:j] if j - i <= len(x) // 8 else None
            for i, j in zip(starts, stops)]


def occupation_curve(path: PathSample, a_grid,
                     moll: MollifierSpec) -> np.ndarray:
    """Occupation estimates (Riemann sums of rho_n(X_s - a) ds) over levels.

    A level's sum walks the points in chunks of _TILE_POINTS and adds each
    chunk's row of terms moll(x - a) * dt, so it does not depend on the
    levels asked for with it. The mollifier is evaluated only within 2/n
    of the level, the reach inside which ``MollifierSpec`` evaluates: the
    terms found there fill an otherwise zero row, which sums to the same
    float as the whole row. A chunk the level reaches no point of adds
    nothing, where the whole row would add 0.0.
    """
    levels = np.asarray(a_grid, dtype=float)
    reach = 2.0 * moll.width
    x_all, dt_all = path.values[:-1], np.diff(path.times)
    out = np.zeros(len(levels))
    row = np.zeros(min(_TILE_POINTS, len(x_all)))
    for lo in range(0, len(x_all), _TILE_POINTS):
        x = x_all[lo:lo + _TILE_POINTS]
        dt = dt_all[lo:lo + _TILE_POINTS]
        chunk_row = row[:len(x)]
        for j, at in enumerate(_reached(x, levels, reach)):
            if at is None:
                out[j] += (moll(x - levels[j]) * dt).sum()
            elif len(at):
                chunk_row[at] = moll(x[at] - levels[j]) * dt[at]
                out[j] += chunk_row.sum()
                chunk_row[at] = 0.0
    return out


# -------------------------------------------------------------- martingale

def _require_jump_record(path: PathSample):
    if path.scheme != "jumpdecomp" or path.config is None:
        raise ValueError(
            "the martingale part needs the jump record; simulate with "
            "the jump-decomposition scheme")


@lru_cache(maxsize=8)
def _compensator_nodes(params: StableParams, eps: float):
    """Read-only nodes and closed-form values of G_eps, NaN at the node 0.

    Nodes run 40 per decade over 1e-2 eps <= |x| <= 1e3, mirrored, plus 0.
    """
    x_min = 1e-2 * eps
    n_nodes = int(round(math.log10(1e3 / x_min) * 40)) + 1
    mags = np.geomspace(x_min, 1e3, n_nodes)
    nodes = np.concatenate([-mags[::-1], [0.0], mags])
    node_values = compensator_density(params, nodes, eps)
    node_values[n_nodes] = np.nan
    nodes.flags.writeable = False
    node_values.flags.writeable = False
    return nodes, node_values


def _compensator_interp(params: StableParams, eps: float):
    """G_eps as a function of x, interpolated between closed-form nodes.

    The nodes are built once per (params, eps) by ``_compensator_nodes``;
    beyond the outermost node the value clamps. Interpolating at every
    path point is ~5x faster than evaluating the closed form there. Inside
    the innermost cell, |x| < 1e-2 eps, G_eps has its |x|^(alpha-1) cusp,
    which a chord misses by up to 1.7% of G(0); the NaN at the node 0
    makes the chord NaN exactly there, and those few points take the
    closed form directly.
    """
    nodes, node_values = _compensator_nodes(params, eps)

    def g(x):
        out = np.interp(x, nodes, node_values)
        cusp = np.isnan(out)
        if cusp.any():
            out[cusp] = compensator_density(params, x[cusp], eps)
        return out

    return g


def martingale_part(params: StableParams, path: PathSample, a,
                    checkpoints=None):
    """Discretized compensated-jump martingale M^a_t along one path.

    Sum over recorded jumps of F(X_pre - a + h) - F(X_pre - a), where a
    jump of size h at grid row k has X_pre = values[k] - h, minus the
    left-point Riemann sum of the compensator density G_eps(X_s - a). The
    gaussian small-jump closure moves the path but stays out of M, which
    keeps M structurally mean-zero. ``a`` is a level or an array of
    levels; ``checkpoints`` is one horizon t, None for the path's horizon
    (the result then has the shape of ``a``, a float for one level), or an
    increasing 1-D array of horizons, all read off one walk over the path
    (the result then has shape ``(len(checkpoints),) + np.shape(a)``).
    """
    _require_jump_record(path)
    times = path.times
    horizons = np.atleast_1d(times[-1] if checkpoints is None
                             else np.asarray(checkpoints, dtype=float))
    if horizons.ndim != 1 or not np.all(np.diff(horizons) > 0.0):
        raise ValueError("checkpoints must be increasing horizons")
    if not (len(horizons) and 0.0 < horizons[0]
            and horizons[-1] <= times[-1] + 1e-12):
        raise ValueError("checkpoints must lie within the simulated horizon")
    grid_ends = np.searchsorted(times, horizons, side="right")
    if grid_ends[0] < 2:
        raise ValueError("checkpoints must cover at least one grid step")
    # the jumps up to a checkpoint are those at rows up to its last grid
    # point, end - 1
    jump_ends = np.searchsorted(path.jump_rows, grid_ends - 1, side="right")
    post = path.values[path.jump_rows[:jump_ends[-1]]]
    pre = post - path.jump_sizes[:jump_ends[-1]]
    levels = np.asarray(a, dtype=float)
    jump_sums = _tiled_levels(
        levels.ravel(), jump_ends,
        lambda b, hi, lo: kernel_F(params, hi - b) - kernel_F(params, lo - b),
        post, pre)
    g = _compensator_interp(params, path.config.eps)
    out = jump_sums - _tiled_levels(levels.ravel(), grid_ends - 1,
                                    lambda b, x, dt: g(x - b) * dt,
                                    path.values[:-1], np.diff(times))
    out = out.reshape(np.shape(checkpoints) + levels.shape)
    return float(out) if out.ndim == 0 else out


def tanaka_curve(params: StableParams, path: PathSample,
                 a_grid) -> np.ndarray:
    """Kernel-route estimates over levels; noisy, so they may dip below 0."""
    a_grid = np.asarray(a_grid, dtype=float)
    return (kernel_F(params, path.values[-1] - a_grid)
            - kernel_F(params, path.values[0] - a_grid)
            - martingale_part(params, path, a_grid))


# ------------------------------------------------------ occupation formula

def default_a_grid(path: PathSample) -> np.ndarray:
    """201 uniform levels covering the path's range with unit margin;
    :class:`ResolutionError` if doubles cannot tell them apart there."""
    grid = np.linspace(path.values.min() - 1.0, path.values.max() + 1.0, 201)
    if not np.all(np.diff(grid) > 0.0):
        raise ResolutionError(
            f"201 levels over [{grid[0]:.17g}, {grid[-1]:.17g}] are not "
            f"distinct in double precision")
    return grid


def occupation_formula_check(path: PathSample, g, a_grid,
                             moll: MollifierSpec) -> float:
    """Relative residual of int g(a) L^a_T da against int_0^T g(X_s) ds.

    The left side integrates the occupation curve over the level grid
    (trapezoid); the right side is a time-Riemann sum along the path. The
    two share no numerics beyond the path itself.
    """
    values = path.values
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or len(a_grid) < 2 or np.any(np.diff(a_grid) <= 0):
        raise ValueError("a_grid must be increasing with at least 2 points")
    if (a_grid[0] > values.min() - moll.width
            or a_grid[-1] < values.max() + moll.width):
        raise ValueError(
            "a_grid must span the path's range with mollifier margin")
    curve = occupation_curve(path, a_grid, moll)
    lhs = float(np.trapezoid(g(a_grid) * curve, a_grid))
    # numpy's sum, not a BLAS dot, so the bits ignore the thread count
    rhs = float(np.sum(g(values[:-1]) * np.diff(path.times)))
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


# ----------------------------------------------------------------- bounds

def martingale_l2_bound(params: StableParams, t: float,
                        eps0: float | None = None) -> float:
    """The square-integrability bound on E[(M^a_t)^2], in closed form.

    Integrates the kernel-increment growth bound against the jump measure:
    the far field contributes 8 D^2 (c+ + c-) t/(2-alpha); the near field
    couples to the uniform negative-moment bound S s^(-gamma/alpha) on
    E|X_s - a|^(-gamma), gamma = 2 + e0 - alpha, whose integral over
    [0, t] is S t^(1-gamma/alpha) / (1 - gamma/alpha).
    """
    a = params.alpha
    e0 = min(a - 1.0, 2.0 - a) / 2.0 if eps0 is None else eps0
    if not 0.0 < e0 < min(a - 1.0, 2.0 - a):
        raise ValueError("eps0 must lie in (0, min(alpha-1, 2-alpha))")
    gamma = 2.0 + e0 - a
    pref = 8.0 * params.big_d ** 2 * (params.c_plus + params.c_minus)
    far = pref * t / (2.0 - a)
    near_integral = negative_moment_bound(params, gamma, t) * t \
        / (1.0 - gamma / a)
    return far + pref / e0 * near_integral
