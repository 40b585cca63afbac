"""Local-time curves a -> L^a_T: mollified occupation and the kernel route.

A local-time estimate is an array of values over a grid of levels, one
per level, at the path's horizon T. Two curves estimate it:

* ``occupation_curve`` -- Riemann sum of rho_n(X_s - a) ds, the mollified
  occupation density;
* ``tanaka_curve`` -- F(X_T - a) - F(X_0 - a) - M^a_T, where the
  martingale part M sums compensated kernel increments over the recorded
  jumps, each read at its grid row. This needs the jump record, so only
  jump-decomposition paths qualify. ``martingale_part`` also stops at
  earlier horizons.

Every sum over all levels goes through one of two walkers, by its shape,
under one tile budget of _PAIR_TILE pairs; every dense block takes its
tile height from ``kernel._row_tiles``. ``_tiled_levels`` walks a dense
sum, where each level adds every point of a record, in chunks of points
and tiles of levels; ``_run_sums`` sums a ragged one, where each level
adds its own run of a sorted order. Either walker is fed one recipe
``terms(a, *columns)``, ``a`` the level of each term, so each kind of
term is written once, whichever walker adds it: moll(x - a) dt,
``_compensator_terms`` and ``_jump_terms``. A path has one value order
of its points, ties in time order, sorted at the first curve that needs
all of them and kept on the path (``_path_by_value``), which both the
occupation sum and the sorted compensator at the horizon read. The
occupation sum takes the points near the levels as a slice of it and
finds each level's points within the mollifier's support by search, a
run of that order summed in value order. The sorted compensator's band,
the jumps of the bins near a level and a level's far bins are runs too.
``_run_sums`` gathers a tile of runs from the columns at once, evaluates
their terms together and sums each run as one segment of one
np.add.reduceat, so a level's value depends only on the path and the
level.

``martingale_part`` picks one of two routes from the number of levels.
For fewer than 16, both of its sums are dense walks: the jump sum adds
``_jump_terms`` for every jump, and the compensator interpolates its
table at every point. For 16 levels or more, the jump sum keeps the
jumps in a tree of bins by value, each jump in the finest bins as wide as
it, and adds each bin far from a level by an expansion of its jumps'
moments, read at the coarsest scale where the bin is far; the jumps of
the bins near a level go as runs, and the jumps left out of the tree,
wider than its top's bins, by the same dense walk. So a jump's kernel
increment is formed in one place, free of cancellation; against exact
summation both jump sums are exact to rounding (measured <= 5.7e-16 of
the sum of the terms' magnitudes, where F(post - a) - F(pre - a) reached
9.4e-12). The compensator reads the
points in the stable value order and sums the chords between the table's
nodes cell by cell, from double-double prefix sums of moments about the
points' midrange, in plain floats; a tile of levels forms chord terms
only in the cells its points reach, and each other cell adds its fixed
signed zero. This route serves each checkpoint by its own calls of both
sums on that checkpoint's prefix: the horizon reads the path's value
order, an earlier checkpoint sorts its prefix; the dense route walks all
prefixes at once. Both compensator routes read one table of G_eps per
(params, eps), ``compensator_table``: closed-form values at nodes. The
two compensator routes agree within 1e-14 of the sum of the compensator
terms' magnitudes (measured <= 8.8e-15 for x0 in {0, 10, 1000}), and a
level's M at 15 and at 16 levels within 1.4e-16 of the sum of its terms'
magnitudes (1.8e-15 absolute; alpha 1.1, 1.3 and 1.5, x0 in {0, 1000},
seeds 1 to 3, a level on a post-jump value among them).

``occupation_formula_check`` closes the loop: integrating the occupation
curve against each of a few test functions must reproduce the direct
time-integral of that function along the path.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .kernel import (
    _PAIR_TILE,
    MollifierSpec,
    _row_tiles,
    compensator_density,
    kernel_F,
)
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

# _tiled_levels walks a record in chunks of this many points, 2 levels a
# tile
_TILE_POINTS = _PAIR_TILE // 2
# For this many levels or more, martingale_part takes the sorted route of
# the compensator and the expanded route of the jump sum; for fewer, both
# go by whole rows (_tiled_levels). Whole rows cost less than the sort,
# which broke even at about 8 levels at the level-curve shape (alpha = 1.3,
# c+- = 3, 1, eps = 1e-3, 4096 steps: 1.69 against 1.70 ms); over 201
# levels a tanaka_curve takes no longer with it on paths of any length.
_SORT_LEVELS = 16
# the sorted compensator evaluates points within this many eps of a level
# one by one: nearer in, G_eps is too steep for its prefix sums' rounding
_NEAR_EPS = 100.0
# The jump sum over _SORT_LEVELS levels or more keeps the jumps in a tree
# of bins about the midrange of the pre-jump values (_jump_bins). Scale
# k's bins are B_k = B_0 2^k wide, B_0 a power of two, so every centre
# and every shift between scales is exact: the top's bins number at most
# _JUMP_TOP across the pre-jump values, the finest's hold _JUMP_FILL jumps
# or more each across them, on average. A jump enters at the finest scale
# with |h| <= B_k, so both its ends lie within B_k of its bin's centre,
# and a bin whose centre lies _JUMP_NEAR B_k or more from a level is far:
# its ratio |u / Y| is at most r = 1/2 at every scale, and its _JUMP_ORDER
# (M) coefficients (_jump_coefficients) keep each far jump's term within
# 8.8e-18 of its own for every alpha in (1, 2). _JUMP_FILL trades the
# near bins' direct terms (~30 ns a pair) against the moments that each
# bin carries up the tree (~0.5 us a bin): at the level-curve shape 16 to
# 32 were equally fast over 201 levels, and 32 the faster over 16.
_JUMP_TOP = 8
_JUMP_FILL = 32
_JUMP_NEAR = 2.0
_JUMP_ORDER = 31


def default_mollifier(eps: float) -> MollifierSpec:
    """The n = eps^(-1/2) tie between mollifier index and jump cutoff,
    for a cutoff eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"jump cutoff eps must lie in (0, 1), got {eps!r}")
    return MollifierSpec(max(1, round(eps ** -0.5)))


def hat_function(center: float, half_width: float):
    """Tent function: 1 at the center, 0 outside center +- half_width."""
    if not (math.isfinite(center) and math.isfinite(half_width)):
        raise ValueError(f"center and half_width must be finite, got "
                         f"{center!r} and {half_width!r}")
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")

    def g(x):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, float) - center)
                          / half_width)

    return g


def _tiled_levels(levels, ends, terms, *columns):
    """Per-level sums of terms(a, *columns) over each prefix columns[:end].

    The walker of every dense sum, where each level adds every point of a
    record. ``terms(a, *chunks)`` maps a (k, 1) column ``a`` of levels and
    chunks of at most _TILE_POINTS points to a (k, points) array of terms;
    k levels fill a tile (``_row_tiles``), so a record of _TILE_POINTS
    points or more takes 2 levels a tile and a short one tall tiles. Each
    row is reduced on its own and each level adds its chunks in point
    order, so its value is the same whichever levels share its tile, and
    however many. One walk serves every prefix: one that ends inside a
    chunk adds the head of that chunk's terms, the same floats in the same
    order as a walk that stopped there. ``ends`` is non-decreasing; the
    result has one row per end and one column per level.
    """
    ends = [int(end) for end in ends]
    out = np.zeros((len(ends), len(levels)))
    for cols in _row_tiles(len(levels), min(ends[-1], _TILE_POINTS)):
        block = levels[cols, None]
        total = np.zeros(len(block))
        for lo in range(0, ends[-1], _TILE_POINTS):
            hi = min(lo + _TILE_POINTS, ends[-1])
            part = terms(block, *(c[lo:hi] for c in columns))
            full = part.sum(axis=1)
            for j, end in enumerate(ends):
                if lo < end <= hi:
                    out[j, cols] = total + (
                        full if end == hi else part[:, :end - lo].sum(axis=1))
            total += full
    return out


def _level_grid(a_grid) -> np.ndarray:
    """The levels of a curve as a float array, refused unless 1-D and
    finite."""
    levels = np.asarray(a_grid, dtype=float)
    if levels.ndim != 1:
        raise ValueError("a_grid must be a 1-D array of levels")
    if not np.all(np.isfinite(levels)):
        raise ValueError("levels must be finite")
    return levels


def _value_order(x, dt):
    """x and dt in the order that sorts x by value, ties in index order.

    Distinct values have one sorted order, so numpy's default sort gives
    the stable order unless two sorted values tie; only then does this
    sort again, stably.
    """
    order = np.argsort(x)
    xs = x[order]
    if np.any(xs[1:] == xs[:-1]):
        order = np.argsort(x, kind="stable")
        xs = x[order]
    return xs, dt[order]


def _path_by_value(path: PathSample, low=-np.inf, high=np.inf):
    """The path's points values[:-1] within [low, high], and their steps,
    in the stable value order (``_value_order``).

    The order of all the points is sorted once, where the window holds
    them all, and kept on the path, read-only; the points of any window
    are then a slice of it, found by two searches, since the stable order
    of the points in a window is the whole order cut to that window. Until
    then a window that leaves points out sorts its own points alone, as a
    one-level occupation curve does.
    """
    by_value = vars(path).get("_by_value")
    if by_value is None:
        x, dt = path.values[:-1], np.diff(path.times)
        if not (low <= x.min(initial=np.inf)
                and x.max(initial=-np.inf) <= high):
            near = np.flatnonzero((x >= low) & (x <= high))
            return _value_order(x[near], dt[near])
        by_value = _value_order(x, dt)
        for array in by_value:
            array.flags.writeable = False
        # a cache, not a field: the path's fields stay as they were
        object.__setattr__(path, "_by_value", by_value)
    xs, dts = by_value
    window = slice(np.searchsorted(xs, low, side="left"),
                   np.searchsorted(xs, high, side="right"))
    return xs[window], dts[window]


def _run_sums(levels, starts, stops, terms, *columns):
    """Per-level sums of terms(a, *columns) over the runs
    [starts[j], stops[j]) of the given columns, a = levels[j].

    The walker of every ragged sum, a run per level: the occupation
    support, the sorted compensator's band, and the jump sum's far bins
    and, a scale at a time, the jumps of its near bins. The runs are
    packed in order into tiles of at most _PAIR_TILE terms; a longer run
    goes in a tile of its own. One index gathers a tile's runs from every
    column, each run behind a slot of its own, and ``terms`` gets each
    term's level ``a`` and its entries of the columns. With the slots'
    terms set to 0.0, one np.add.reduceat sums each run as one segment,
    0.0 plus the pairwise sum of its terms: np.add.reduce's float for the
    run alone. So a run's float depends only on its own terms, not on the
    runs that share its tile; an empty run gives exactly 0.0.
    """
    out = np.zeros(len(levels))
    counts = stops - starts
    runs = np.flatnonzero(counts)
    ends = np.cumsum(counts[runs])
    lo = 0
    while lo < len(runs):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_TILE,
                                             side="right")))
        rows, n = runs[lo:hi], counts[runs[lo:hi]]
        # a run's slot gathers the entry before it (the last, for a run at
        # 0), whose term is then set to 0.0
        slots = ends[lo:hi] - n - base + np.arange(hi - lo)
        index = np.repeat(starts[rows] - slots - 1, n + 1)
        index += np.arange(len(index))
        values = terms(np.repeat(levels[rows], n + 1),
                       *(column[index] for column in columns))
        values[slots] = 0.0
        out[rows] = np.add.reduceat(values, slots)
        lo = hi
    return out


# ------------------------------------------------------------- occupation

def occupation_curve(path: PathSample, a_grid,
                     moll: MollifierSpec) -> np.ndarray:
    """Occupation estimates (Riemann sums of rho_n(X_s - a) ds) over levels.

    The points within the mollifier's support ``width`` (1/n) of the
    levels, in value order, ties in time order, are a slice of the path's
    one value order, which the sorted compensator reads too; where that
    order is not yet at hand and some points lie beyond the levels' reach,
    as for one level, only the near points are sorted
    (``_path_by_value``). A level's points within its support are a run
    of that order found by two searches, and its terms moll(x - a) * dt
    are summed as one slice in that order. The terms of all (level, point)
    pairs are evaluated in one pass over tiles of whole levels' runs. So a
    level's float depends only on the path and the level, not on the
    levels asked for with it, and a level no point reaches gives exactly
    0.0.
    """
    levels = _level_grid(a_grid)
    width = moll.width
    xs, dts = _path_by_value(path, levels.min(initial=np.inf) - width,
                             levels.max(initial=-np.inf) + width)
    starts = np.searchsorted(xs, levels - width, side="left")
    stops = np.searchsorted(xs, levels + width, side="right")
    return _run_sums(levels, starts, stops, lambda a, x, dt: moll(x - a) * dt,
                     xs, dts)


# -------------------------------------------------------------- martingale

class _CompensatorTable(NamedTuple):
    """G_eps tabulated for one (params, eps); both arrays are read-only.

    ``nodes`` run 40 per decade over 1e-2 eps <= |x| <= 1e3, mirrored, plus
    0, and ``node_values`` are G_eps there in closed form, NaN at the node
    0 (see ``_compensator_at``). The sorted route reads the same nodes as
    chord cells (``_sorted_sums``).
    """

    params: StableParams
    eps: float
    nodes: np.ndarray
    node_values: np.ndarray


@lru_cache(maxsize=8)
def compensator_table(params: StableParams, eps: float) -> _CompensatorTable:
    """The one table of G_eps per (params, eps) that both routes read."""
    x_min = 1e-2 * eps
    n_nodes = int(round(math.log10(1e3 / x_min) * 40)) + 1
    mags = np.geomspace(x_min, 1e3, n_nodes)
    nodes = np.concatenate([-mags[::-1], [0.0], mags])
    node_values = compensator_density(params, nodes, eps)
    node_values[n_nodes] = np.nan
    nodes.flags.writeable = node_values.flags.writeable = False
    return _CompensatorTable(params, eps, nodes, node_values)


def _compensator_at(table: _CompensatorTable, x) -> np.ndarray:
    """G_eps at the points x, interpolated between the table's nodes.

    Beyond the outermost node the value clamps. Interpolating at every
    path point is ~5x faster than evaluating the closed form there. Inside
    the innermost cell, |x| < 1e-2 eps, G_eps has its |x|^(alpha-1) cusp,
    which a chord misses by up to 1.7% of G(0); the NaN at the node 0
    makes the chord NaN exactly there, and those few points take the
    closed form directly.
    """
    out = np.interp(x, table.nodes, table.node_values)
    cusp = np.isnan(out)
    if cusp.any():
        out[cusp] = compensator_density(table.params, x[cusp], table.eps)
    return out


def _compensator_terms(table: _CompensatorTable, a, x, dt):
    """G_eps(x - a) dt per point: the one compensator term of both
    routes, the tiled one's at every point and the sorted one's in its
    band."""
    return _compensator_at(table, x - a) * dt


def _two_sum_error(a, b, s):
    """a + b - s exactly, for s = fl(a + b): the rounding error of one
    addition (Knuth's TwoSum), the one place that forms it."""
    back = s - a
    return (a - (s - back)) + (b - back)


def _sorted_prefix_sums(xs, dts, c):
    """Prefix sums of dt and (x - c) dt over points sorted by x, as pairs
    hi + lo: the float cumsum, and the cumsum of each addition's exact
    rounding error (``_two_sum_error``)."""
    terms = xs - c
    terms *= dts
    hi, lo = sums = np.zeros((2, 2, len(xs) + 1))
    for top, low, added in zip(hi, lo, (dts, terms)):
        np.cumsum(added, out=top[1:])
        np.cumsum(_two_sum_error(top[:-1], added, top[1:]), out=low[1:])
    return sums


def _sorted_sums(table: _CompensatorTable, levels, xs, dts):
    """Per-level sums of G_eps(x - a) dt over the points xs, sorted in the
    stable value order (``_value_order``), with their steps dts.

    The table's nodes at least _NEAR_EPS eps from 0 are the edges of its
    chord cells [edges[j], edges[j+1]), with -inf and inf at the ends. On
    cell j the table is value[j] + slope[j] (x - left[j]), a chord between
    two nodes or a clamped end of slope 0; the cell ``band`` spans 0 and
    has value and slope 0, since its points are evaluated one by one. A
    cell's points are a run of the sorted order, whose weight W and moment
    X_c about the points' midrange c come from the prefix sums; the
    chord's sum over the run is value W + slope (X_c - (a - c + left) W),
    whose rounding does not grow with |a|. A tile of levels searches,
    gathers and forms chord terms only in the window of cells that a
    point reaches at one of its levels; a cell outside it is empty at
    every level of the tile, W = X_c = +0, so its term is its fixed signed
    zero value 0 + slope 0, and each level still adds all its cells' terms
    in cell order. The band's points are evaluated as the tiled route
    does, and each level's band terms are summed as one slice
    (``_run_sums``).
    """
    outside = np.abs(table.nodes) >= _NEAR_EPS * table.eps
    inner, y = table.nodes[outside], table.node_values[outside]
    edges = np.concatenate([[-np.inf], inner, [np.inf]])
    value = np.concatenate([y[:1], y])
    slope = np.concatenate([[0.0], np.diff(y) / np.diff(inner), [0.0]])
    left = np.concatenate([[0.0], inner])
    band = int(np.count_nonzero(inner < 0.0))
    value[band] = slope[band] = 0.0
    # the term of a cell that holds no point, W = X_c = +0
    empty = value * 0.0 + slope * 0.0
    c = 0.5 * xs[0] + 0.5 * xs[-1]  # (xs[0] + xs[-1]) / 2 may overflow
    sums = _sorted_prefix_sums(xs, dts, c)
    # the cells' edges about c, where a + edge would round to a once ulp(a)
    # exceeds the inner edges
    xs_c = xs - c
    out = np.empty(len(levels))
    # a band no point reaches is an empty run
    bands = np.zeros((2, len(levels)), dtype=np.intp)
    # tiles of levels by cells whose 2 x 2 prefix sums hold _PAIR_TILE floats
    tiles = _row_tiles(len(levels), 4 * len(value))
    shifted = levels - c
    heads = [rows.start for rows in tiles]
    # the edge queries (a - c) + edge rise with the edge and with the
    # level, so in each tile the first point's cell at its highest level
    # and the last point's at its lowest bound the window [lo, hi) of the
    # cells that hold points
    los = np.count_nonzero(np.maximum.reduceat(shifted, heads)[:, None]
                           + edges <= xs_c[0], axis=1) - 1
    his = np.count_nonzero(np.minimum.reduceat(shifted, heads)[:, None]
                           + edges <= xs_c[-1], axis=1)
    for rows, lo, hi in zip(tiles, los.tolist(), his.tolist()):
        block = shifted[rows, None]
        at = np.searchsorted(xs_c, block + edges[lo:hi + 1])
        w, moment = np.diff(np.take(sums, at, axis=-1)).sum(axis=0)
        terms = np.tile(empty, (len(block), 1))
        terms[:, lo:hi] = value[lo:hi] * w + slope[lo:hi] * (
            moment - (block + left[lo:hi]) * w)
        out[rows] = terms.sum(axis=1)
        if lo <= band < hi:
            bands[:, rows] = at[:, band - lo:band - lo + 2].T
    out += _run_sums(levels, *bands, partial(_compensator_terms, table),
                     xs, dts)
    return out


def _jump_terms(params: StableParams, a, pre, h, post):
    """F(post - a) - F(pre - a) per jump, free of cancellation: the one
    place where ``martingale_part`` forms a jump's kernel increment.

    A jump is (pre, h, post), with post = values[k] and pre = post - h for
    a jump recorded at grid row k. ``a`` broadcasts against the jumps: a
    (k, 1) column of levels gives a (k, jumps) array of terms, and one
    level per jump one term per jump. With y = pre - a, a jump that keeps
    the sign of y + h adds F(y) expm1((alpha - 1) log1p(h / y)), exact to
    rounding however small h is against y; the rest (a crossing, y = 0,
    or an h / y that overflows, where that form is not finite) add
    F(z) - F(y), z = post - a, which does not cancel there; z is formed
    for those terms alone. So a level within rounding of a post-jump value
    reads F at pre + h - a, not at values[k] - a: F's |x|^(alpha - 1) cusp
    makes the two differ by the order of F(ulp(x)), 1.6e-5 at alpha 1.3
    and x = 1000.
    """
    y = pre - a
    out = kernel_F(params, y)
    # the direct entries' NaN and inf are overwritten below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(h, y)
        np.log1p(ratio, out=ratio)
        # a finite log1p is at most ~710 in size, so the sum is finite
        # exactly when every ratio is: only then are the direct ones sought
        direct = (None if np.isfinite(ratio.sum())
                  else np.nonzero(~np.isfinite(ratio)))
        ratio *= params.alpha - 1.0
        out *= np.expm1(ratio, out=ratio)
    if direct is not None:
        z = (np.broadcast_to(post, y.shape)[direct]
             - np.broadcast_to(a, y.shape)[direct])
        out[direct] = kernel_F(params, z) - kernel_F(params, y[direct])
    return out


def _two_difference(x, c):
    """x - c as s + e exactly: s the float difference, e its rounding
    error."""
    s = x - c
    return s, _two_sum_error(x, -c, s)


class _JumpTree(NamedTuple):
    """The tree of bins of ``_expanded_jump_sums`` (``_jump_bins``).

    ``c`` is the midrange of the pre-jump values; ``binned`` the jumps in
    the tree, in the order of their bins, in time order within a bin;
    ``rest`` the jumps left out, in time order. Scale k, from the finest
    up, has bins B_k = ``width`` 2^k wide with keys ``starts[k]``, ...,
    tree bins ``heads[k]:heads[k + 1]``; key i covers [origin + i B_k,
    origin + (i + 1) B_k) less c, and its halves one scale down have keys
    2i and 2i + 1. Each bin has its centre less c and its moments in units
    of B_k times the expansion's coefficients w_m, one row per order m;
    the jumps that enter the tree in bin b are ``binned[jumps[b]:jumps[b
    + 1]]``.
    """

    c: float
    binned: np.ndarray
    rest: np.ndarray
    width: float
    origin: float
    starts: np.ndarray
    heads: np.ndarray
    centres: np.ndarray
    moments: np.ndarray
    jumps: np.ndarray


def _jump_bins(params: StableParams, pre, h) -> _JumpTree:
    """The tree of bins of ``_expanded_jump_sums``.

    The top scale's bins are the narrowest power of two wide with at most
    _JUMP_TOP of them over the pre-jump values less c and half a bin
    either side, from ``origin``; each scale down halves them, to the
    finest with at least _JUMP_FILL jumps a bin over that span, or the
    top alone. A jump's key at scale k is the floor of its midpoint less
    c and ``origin`` in units of B_k, the finest scale's key shifted right
    by k. It enters the tree at the finest scale k with |h| <= B_k; it is
    left out if no scale is that wide, or if its midpoint rounded out of
    the top's bins or into a neighbouring bin at its scale. Each scale
    keeps the bins from its least key to its greatest, and below the top
    whole pairs of halves. A bin's moments mu_m = sum(u^m - v^m), m <=
    _JUMP_ORDER, of v, the pre-jump value less c and the bin's centre, and
    u = v + h, both in units of B_k, come from the recursion d_m = u
    d_(m-1) + v^(m-1) h, once per jump, for the jumps that enter there,
    plus its halves' moments moved to its centre (``_moved_up``), so each
    jump is in the moments of its bin and of every bin above it. The
    temporaries as long as the jump record are freed on return, so the
    direct sums reuse their memory instead of growing a heap that is
    trimmed and faulted back in.
    """
    c = 0.5 * pre.min() + 0.5 * pre.max()  # (lo + hi) / 2 may overflow
    # pre - c and a - c as exact pairs s + e, so each jump's offset v from
    # its bin's centre, and each bin's offset Y from a level, are right to
    # rounding however far the values lie from c
    half = 0.5 * h
    v, err = _two_difference(pre, c)
    low, high = float(v.min()), float(v.max())
    none = np.empty(0, np.intp)
    left_out = _JumpTree(c, none, np.arange(len(h)), 1.0, 0.0, none, none,
                         none, none, none)
    if not math.isfinite(high - low):
        return left_out
    top = math.frexp(high - low)[1] - 4
    while (math.floor(math.ldexp(high, -top) + 0.5)
           - math.floor(math.ldexp(low, -top) - 0.5) >= _JUMP_TOP):
        top += 1
    first = math.floor(math.ldexp(low, -top) - 0.5)
    n_top = math.floor(math.ldexp(high, -top) + 0.5) - first + 1
    below = max(0, (len(h) // (_JUMP_FILL * n_top)).bit_length() - 1)
    width = math.ldexp(1.0, top - below)
    origin = math.ldexp(first, top)
    # each jump's scale, the finest k with |h| <= B_k: the exponent of h
    # an ulp nearer 0, so that a power of two takes the scale it bounds
    scale = np.frexp(h * (1.0 - 2.0 ** -53))[1]
    scale -= top - below
    np.clip(scale, 0, below + 1, out=scale)
    fits = scale <= below
    size = np.ldexp(width, scale)
    # its midpoint less c and origin, and that in units of B_k, floored:
    # its bin's key at its scale
    with np.errstate(over="ignore"):
        place = v + half
        place -= origin
        key = place / size
    fits &= place >= 0.0
    fits &= place < math.ldexp(n_top, top)
    np.floor(key, out=key)
    offset = key + 0.5
    offset *= size
    offset += origin
    np.subtract(v, offset, out=offset)
    offset += err
    # a jump whose midpoint rounded into a neighbouring bin stays direct
    fits &= np.abs(half + offset) <= 0.5 * size
    count = int(np.count_nonzero(fits))
    if not count:
        return left_out
    # each scale's bins run from the least key to the greatest; bin i of
    # scale k is bin heads[k] + i of the tree, and the jumps left out come
    # after the last
    bottom = np.ldexp(key, scale)
    lo = int(np.min(bottom, where=fits, initial=np.inf))
    hi = int(np.max(bottom, where=fits, initial=-np.inf))
    # below the top, whole pairs of halves
    ends = [2 * (hi >> k) + 1 for k in range(1, below + 1)] + [hi >> below]
    starts = np.array([2 * (lo >> k) for k in range(1, below + 1)]
                      + [lo >> below])
    heads = np.cumsum([0] + [end - start + 1
                             for start, end in zip(starts, ends)])
    key += np.append(heads[:-1] - starts, 0)[scale]
    np.copyto(key, heads[-1], where=~fits)
    # a stable sort of 16-bit keys is a radix sort
    key = key.astype(np.uint16 if heads[-1] < 2**16 else np.intp)
    binned = np.argsort(key, kind="stable")
    binned, rest = binned[:count], binned[count:]
    key = key[binned].astype(np.intp)
    runs = np.append(0, np.flatnonzero(key[1:] != key[:-1]) + 1)
    # the moments of each bin where jumps enter, one order at a time:
    # d_m = u^m - v^m and q_m = v^(m-1) h
    offset /= size
    h_units = h / size
    vs, d = offset[binned], h_units[binned]
    q = d.copy()
    us = vs + d
    entered = np.empty((_JUMP_ORDER, len(runs)))
    for m, row in enumerate(entered):
        if m:
            q *= vs
            d *= us
            d += q
        np.add.reduceat(d, runs, out=row)
    moments = np.zeros((_JUMP_ORDER, heads[-1]))
    moments[:, key[runs]] = entered
    for k in range(below):
        # scale k's pairs of halves are bins lead:lead + pairs one scale up
        lead = (starts[k] >> 1) - starts[k + 1]
        pairs = (heads[k + 1] - heads[k]) >> 1
        moments[:, heads[k + 1] + lead:heads[k + 1] + lead + pairs] += \
            _moved_up(moments[:, heads[k]:heads[k + 1]])
    moments *= _jump_coefficients(params.alpha)[:, None]
    centres = np.concatenate([
        np.arange(starts[k] + 0.5, starts[k] + heads[k + 1] - heads[k])
        * math.ldexp(width, k) for k in range(below + 1)])
    centres += origin
    return _JumpTree(c, binned, rest, width, origin, starts,
                     heads, centres, moments,
                     np.searchsorted(key, np.arange(heads[-1] + 1)))


@lru_cache(maxsize=1)
def _shift_up() -> np.ndarray:
    """The moments of a pair of halves, each about its centre in units of
    its width B, moved to the centre of the bin they halve, in units of
    2B: orders m = 1, ..., _JUMP_ORDER by the halves' orders j and sides,
    column 2(j - 1) for the left half and 2j - 1 for the right. The right
    half's centre lies B/2 left of the bin's, so its u becomes u / 2 +
    1/4, by binom(m, j) 2^-j 4^(j - m); the left half's becomes u / 2 -
    1/4, the same with the sign (-1)^(m - j). Every entry is exact."""
    m = np.arange(1, _JUMP_ORDER + 1)
    right = np.array([[math.comb(i, j) for j in m] for i in m], dtype=float)
    right *= np.ldexp(1.0, 2 * (m[None, :] - m[:, None]) - m[None, :])
    shift = np.repeat(right, 2, axis=1)
    shift[:, ::2] *= (-1.0) ** (m[:, None] - m[None, :])
    shift.flags.writeable = False
    return shift


def _moved_up(halves):
    """The moments of pairs of halves, (orders, 2 pairs) with the left
    half first, moved to the centres of the bins they halve and added:
    (orders, pairs) (``_shift_up``). The sum goes by numpy's own loops,
    not BLAS, so its bits ignore the thread count, in blocks of 8 orders,
    each of which skips the halves' orders past its last, zero in the
    lower triangle."""
    sides = halves.reshape(_JUMP_ORDER, -1, 2).transpose(0, 2, 1).reshape(
        2 * _JUMP_ORDER, -1)
    moved = np.empty((_JUMP_ORDER, sides.shape[1]))
    for lo in range(0, _JUMP_ORDER, 8):
        hi = min(lo + 8, _JUMP_ORDER)
        np.einsum("mj,jb->mb", _shift_up()[lo:hi, :2 * hi], sides[:2 * hi],
                  out=moved[lo:hi])
    return moved


@lru_cache(maxsize=8)
def _jump_coefficients(alpha: float) -> np.ndarray:
    """The expansion's coefficients w_m, m = 1, ..., _JUMP_ORDER: a far bin
    adds F(Y) sum_m w_m mu_m Y^(-m).

    A jump's term is F(Y) times the integral of g(x) = (alpha - 1)
    (1 + x)^(alpha - 2) from v / Y to u / Y, both within r of 0, where
    g > 0. A polynomial sum_k b_k x^k within relative error d of g on
    [-r, r] gives w_m = b_(m-1) / m, and every far jump's term within d of
    its own. The b_k are g's Taylor series, economized: taken to degree 89
    (the rest is at most r^90 / (1 - r) of g), written in Chebyshev
    polynomials of x / r and cut to degree _JUMP_ORDER - 1. A Chebyshev
    term is at most its coefficient in size on [-r, r], so the terms cut
    and the Taylor tail, over g's least value (alpha - 1)(1 + r)^(alpha -
    2), bound d: at most 8.8e-18 for every alpha in (1, 2) at r = 1/2,
    where the binomial series itself would need 59 terms.
    """
    s = alpha - 1.0
    r = 1.0 / _JUMP_NEAR
    # g's Taylor coefficients s binom(alpha - 2, k), in powers of x / r
    j = np.arange(1.0, 90.0)
    taylor = s * np.cumprod(np.concatenate([[1.0], (s - j) / j]))
    taylor *= r ** np.arange(90.0)
    chebyshev = np.polynomial.chebyshev.poly2cheb(taylor)[:_JUMP_ORDER]
    b = np.polynomial.chebyshev.cheb2poly(chebyshev)
    b /= r ** np.arange(_JUMP_ORDER)
    b /= np.arange(1.0, _JUMP_ORDER + 1.0)
    b.flags.writeable = False  # one array serves every call at this alpha
    return b


def _far_terms(params: StableParams, c, centres, widths, moments, a, bins):
    """F(Y) sum_m w_m mu_m (B / Y)^m per far (level, bin) pair, by Horner:
    bin ``bins`` of the tree, B wide with its centre less c at Y from
    a - c, and its moments times the coefficients w_m (``_jump_bins``).
    Y is formed from a - c as an exact pair, so it does not lose digits
    to |a - c|."""
    s, e = _two_difference(a, c)
    y = centres[bins] - s
    y -= e
    t = widths[bins] / y
    acc = moments[-1][bins] * t
    for row in moments[-2::-1]:
        acc += row[bins]
        acc *= t
    acc *= kernel_F(params, y)
    return acc


def _expanded_jump_sums(params: StableParams, levels, pre, h, post):
    """Per-level sums of F(post - a) - F(pre - a) over the jumps given.

    The jumps go into the tree of ``_jump_bins``. A bin of scale k whose
    centre lies at Y, |Y| >= _JUMP_NEAR B_k, from a - c is far and adds
    F(Y) sum_m w_m mu_m (B_k / Y)^m (``_far_terms``): its ratio |u / Y| is
    at most 1/2, and each jump's term is within 8.8e-18 of its own. The
    near bins of a scale are a run of its bins, and the bins that they
    halve are near too. So a level reads the far bins of the top and, at
    each scale below, the far halves of the near bins one scale up, each
    far bin at the coarsest scale where it is far; the jumps that enter
    the tree in a bin near it, and the jumps left out of the tree, add
    ``_jump_terms`` directly, from the original floats. A level's place
    among the bins comes from a - c as an exact pair, so it is right to
    rounding however far the values lie from c. A level adds its parts in
    this order, each reduced on its own: its far bins that hold jumps, one
    run of (level, bin) pairs; at each scale from the finest up, the jumps
    that enter the tree in its near bins, one run of the tree's jumps
    (both ``_run_sums``); and the jumps left out, walked in time order
    (``_tiled_levels``). So its float depends only on the jumps and the
    level. Tiles of pairs keep every temporary below 128 KiB, bar a run
    longer than a tile.
    """
    out = np.zeros(len(levels))
    if not len(h):
        return out
    tree = _jump_bins(params, pre, h)
    jump_terms = partial(_jump_terms, params)
    if len(tree.binned):
        n, n_scales = len(levels), len(tree.starts)
        starts, heads = tree.starts[:, None], tree.heads[:-1, None]
        counts = np.diff(tree.heads)[:, None]
        widths = np.ldexp(tree.width, np.arange(n_scales))
        # each level's place at each scale, in bins from the left edge of
        # the scale's first bin: its near bins, centres within 2 bins of
        # it, are first:stop
        level_s, level_e = _two_difference(levels, tree.c)
        with np.errstate(over="ignore"):
            place = (level_s - tree.origin) + level_e
            place = place / widths[:, None] - starts
        np.clip(place, -3.0, counts + 3.0, out=place)
        first = np.floor(place - 2.5).astype(np.intp) + 1
        stop = np.ceil(place + 1.5).astype(np.intp)
        np.clip(first, 0, counts, out=first)
        np.clip(stop, 0, counts, out=stop)
        # the halves of the near bins one scale up, lo:hi; at the top, all
        # its bins
        lead = starts[:-1] - 2 * starts[1:]
        lo = np.vstack([np.clip(2 * first[1:] - lead, 0, counts[:-1]),
                        np.zeros((1, n), np.intp)])
        hi = np.vstack([np.clip(2 * stop[1:] - lead, 0, counts[:-1]),
                        np.full((1, n), counts[-1])])
        # a level's far bins, lo:first and stop:hi at each scale, are one
        # run of (level, bin) pairs; a bin whose moments are all 0 adds
        # exactly 0 and is left out
        bounds = np.stack([lo, first, stop, hi]).T + heads.T[..., None]
        lengths = (bounds[..., 1::2] - bounds[..., ::2]).ravel()
        bins = np.repeat(bounds[..., ::2].ravel() - np.cumsum(lengths)
                         + lengths, lengths) + np.arange(lengths.sum())
        owner = np.repeat(np.arange(n), lengths.reshape(n, -1).sum(axis=1))
        held = np.any(tree.moments, axis=0)[bins]
        pairs = np.bincount(owner[held], minlength=n)
        ends = np.cumsum(pairs)
        out = _run_sums(levels, ends - pairs, ends,
                        partial(_far_terms, params, tree.c, tree.centres,
                                np.repeat(widths, counts[:, 0]),
                                tree.moments), bins[held])
        # its near bins' own jumps, one run of the tree's jumps a scale
        near = tree.jumps[np.stack([first, stop]) + heads]
        direct = _run_sums(np.tile(levels, n_scales), near[0].ravel(),
                           near[1].ravel(), jump_terms, pre[tree.binned],
                           h[tree.binned], post[tree.binned])
        for row in direct.reshape(n_scales, n):
            out += row
    rest = tree.rest
    out += _tiled_levels(levels, [len(rest)], jump_terms, pre[rest], h[rest],
                         post[rest])[0]
    return out


def martingale_part(params: StableParams, path: PathSample, a,
                    checkpoints=None):
    """Discretized compensated-jump martingale M^a_t along one path.

    Sum over recorded jumps of F(X_pre - a + h) - F(X_pre - a), where a
    jump of size h at grid row k has X_pre = values[k] - h, minus the
    left-point Riemann sum of the compensator density G_eps(X_s - a). The
    gaussian small-jump closure moves the path but stays out of M, which
    keeps M structurally mean-zero. ``a`` is a finite level or an array
    of finite levels; ``checkpoints`` is one horizon t, None for the
    path's horizon (the result then has the shape of ``a``, a float for
    one level), or an increasing 1-D array of horizons, the last within a
    few ulps of the path's (the result then has shape
    ``(len(checkpoints),) + np.shape(a)``).

    For fewer than _SORT_LEVELS levels both sums go point by point
    (``_tiled_levels`` of ``_jump_terms`` and ``_compensator_terms``); from
    there up the jumps go by a far-field expansion of the moments of a
    tree of jump bins (``_expanded_jump_sums``, with each level's near
    bins' jumps as runs and the jumps left out of the tree walked point
    by point) and the
    compensator cell by cell (``_sorted_sums``, on the path's one value
    order at its horizon, a prefix's own sort before it), each called
    once per checkpoint on that checkpoint's prefix. Across the two routes
    a level's value agrees within 1.4e-16 of the sum of its terms'
    magnitudes (measured at 15 and 16 levels, a level on a post-jump value
    among them), and a checkpoint's row is the call at that checkpoint
    alone.
    :class:`ResolutionError` if an X - a overflows.
    """
    if path.scheme != "jumpdecomp" or path.config is None:
        raise ValueError(
            "the martingale part needs the jump record; simulate with "
            "the jump-decomposition scheme")
    times = path.times
    horizons = np.atleast_1d(times[-1] if checkpoints is None
                             else np.asarray(checkpoints, dtype=float))
    if horizons.ndim != 1 or not np.all(np.diff(horizons) > 0.0):
        raise ValueError("checkpoints must be increasing horizons")
    # a few ulps of slack forgive a horizon that rounded above T, such as
    # 3 * 0.1 for 0.3, at every scale of T
    if not (len(horizons) and 0.0 < horizons[0] and horizons[-1]
            <= times[-1] + 4.0 * np.spacing(times[-1])):
        raise ValueError("checkpoints must lie within the simulated horizon")
    grid_ends = np.searchsorted(times, horizons, side="right")
    if grid_ends[0] < 2:
        raise ValueError("checkpoints must cover at least one grid step")
    # the jumps up to a checkpoint are those at rows up to its last grid
    # point, end - 1
    jump_ends = np.searchsorted(path.jump_rows, grid_ends - 1, side="right")
    post = path.values[path.jump_rows[:jump_ends[-1]]]
    h = path.jump_sizes[:jump_ends[-1]]
    pre = post - h
    levels = _level_grid(np.ravel(a))
    # the extremes bound every X - a; Python floats overflow without a warning
    seen = path.values[:grid_ends[-1]]
    low = float(min(seen.min(), pre.min(initial=np.inf)))
    high = float(max(seen.max(), pre.max(initial=-np.inf)))
    if len(levels) and not (math.isfinite(high - float(levels.min()))
                            and math.isfinite(low - float(levels.max()))):
        raise ResolutionError("a level's distance from the path overflows")
    table = compensator_table(params, path.config.eps)
    ends, x, dt = grid_ends - 1, path.values[:-1], np.diff(times)
    if len(levels) >= _SORT_LEVELS:
        # the whole path's value order is the path's own, which its
        # occupation curve reads too; a shorter prefix is sorted anew
        out = np.array([_expanded_jump_sums(params, levels, pre[:jumps],
                                            h[:jumps], post[:jumps])
                        - _sorted_sums(table, levels, *(
                            _path_by_value(path) if end == len(x)
                            else _value_order(x[:end], dt[:end])))
                        for jumps, end in zip(jump_ends, ends)])
    else:
        out = _tiled_levels(levels, jump_ends, partial(_jump_terms, params),
                            pre, h, post)
        out -= _tiled_levels(levels, ends, partial(_compensator_terms, table),
                             x, dt)
    out = out.reshape(np.shape(checkpoints) + np.shape(a))
    return float(out) if out.ndim == 0 else out


def tanaka_curve(params: StableParams, path: PathSample,
                 a_grid) -> np.ndarray:
    """Kernel-route estimates over levels; noisy, so they may dip below 0."""
    a_grid = _level_grid(a_grid)
    m = martingale_part(params, path, a_grid)  # first: it checks X - a
    return (kernel_F(params, path.values[-1] - a_grid)
            - kernel_F(params, path.values[0] - a_grid) - m)


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


def occupation_formula_check(path: PathSample, gs, a_grid,
                             moll: MollifierSpec) -> np.ndarray:
    """Relative residual of int g(a) L^a_T da against int_0^T g(X_s) ds
    for each g in ``gs``, all from one occupation curve.

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
    x, dt = values[:-1], np.diff(path.times)
    lhs = np.array([np.trapezoid(g(a_grid) * curve, a_grid) for g in gs])
    # numpy's sum, not a BLAS dot, so the bits ignore the thread count
    rhs = np.array([np.sum(g(x) * dt) for g in gs])
    return np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)


# ----------------------------------------------------------------- bounds

def martingale_l2_bound(params: StableParams, t: float) -> float:
    """The square-integrability bound on E[(M^a_t)^2], in closed form.

    Integrates the kernel-increment growth bound against the jump measure:
    the far field contributes 8 D^2 (c+ + c-) t/(2-alpha); the near field
    couples to the uniform negative-moment bound S s^(-gamma/alpha) on
    E|X_s - a|^(-gamma), gamma = 2 + e0 - alpha, whose integral over
    [0, t] is S t^(1-gamma/alpha) / (1 - gamma/alpha). The exponent knob
    e0 sits in the middle of (0, min(alpha-1, 2-alpha)), the range in
    which both bounds hold.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t!r}")
    a = params.alpha
    e0 = min(a - 1.0, 2.0 - a) / 2.0
    gamma = 2.0 + e0 - a
    pref = 8.0 * params.big_d ** 2 * (params.c_plus + params.c_minus)
    far = pref * t / (2.0 - a)
    near_integral = negative_moment_bound(params, gamma, t) * t \
        / (1.0 - gamma / a)
    return far + pref / e0 * near_integral
