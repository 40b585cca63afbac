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

Every sum over all levels goes through one of two walkers, by its shape,
under one tile budget of _PAIR_TILE pairs; every dense block takes its
tile height from ``kernel._row_tiles``. ``_tiled_levels`` walks a dense
sum, where each level adds every point of a record, in chunks of points
and tiles of levels; ``_run_sums`` sums a ragged one, where each level
adds its own run of a sorted order. The occupation sum sorts the points
near the levels once and finds each level's points within the
mollifier's support by search, a run of that order summed in value order,
ties in time order. The sorted compensator's band and the jumps in the
bins near a level are such runs too. ``_run_sums`` evaluates the terms of
whole runs in tiles and sums each run as one slice, so a level's value
depends only on the path and the level.

``martingale_part`` picks one of two routes from the number of levels.
For fewer than 16, both of its sums are dense walks: the jump sum adds
``_jump_terms`` for every jump (``_walked_jumps``), and the compensator
interpolates its table at every point. For 16 levels or more, the jump
sum bins the small jumps by value and adds each bin far from a level by
an expansion of the bin's jump moments, the jumps of the bins near a
level as runs, and the jumps left out of the bins, the large ones among
them, by the same dense walk. So a jump's kernel increment is formed in
one place, free of cancellation; against exact summation both jump sums
are exact to rounding (measured <= 3.7e-16 of the sum of the terms'
magnitudes, where F(post - a) - F(pre - a) reached 9.4e-12). The
compensator sorts the path once per call, in the stable order, and sums
each checkpoint's chords cell by cell from double-double prefix sums of
moments about that prefix's midrange, in plain floats. Both compensator
routes read one table of G_eps per (params, eps), ``compensator_table``:
closed-form values at nodes, and the chords between them as cells. The
two compensator routes agree within 1e-14 of the sum of the compensator
terms' magnitudes (measured <= 8.8e-15 for x0 in {0, 10, 1000}), and a
level's M at 15 and at 16 levels within 1.3e-16 of the sum of its terms'
magnitudes (1.3e-15 absolute; alpha 1.1, 1.3 and 1.5, x0 in {0, 1000}, a
level on a post-jump value among them).

``occupation_formula_check`` closes the loop: integrating the occupation
curve against each of a few test functions must reproduce the direct
time-integral of that function along the path.
"""

from __future__ import annotations

import math
from functools import lru_cache
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
# The jump sum over _SORT_LEVELS levels or more bins the jumps of size at
# most _JUMP_SMALL by their midpoint, _JUMP_BIN wide, and a bin whose
# centre lies _JUMP_NEAR or more from a level adds its jumps by a
# _JUMP_ORDER-term expansion about that centre. Its ratio |u / Y| stays
# below (B + H) / 2R = 1/6, so the terms left out sum to less than 1e-17
# of a jump's term for every alpha in (1, 2).
_JUMP_BIN = 0.05
_JUMP_SMALL = 0.5 * _JUMP_BIN
_JUMP_NEAR = 4.5 * _JUMP_BIN
_JUMP_ORDER = 22


def default_mollifier(eps: float) -> MollifierSpec:
    """The n = eps^(-1/2) tie between mollifier index and jump cutoff,
    for a cutoff eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"jump cutoff eps must lie in (0, 1), got {eps!r}")
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

    The walker of every dense sum, where each level adds every point of a
    record. ``tile(block, *chunks)`` maps a (k, 1) column of levels and
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
            terms = tile(block, *(c[lo:hi] for c in columns))
            full = terms.sum(axis=1)
            for j, end in enumerate(ends):
                if lo < end <= hi:
                    out[j, cols] = total + (
                        full if end == hi else terms[:, :end - lo].sum(axis=1))
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


def _value_order(x):
    """The order that sorts x by value, ties in index order, and x in it.

    Distinct values have one sorted order, so numpy's default sort gives
    the stable order unless two sorted values tie; only then does this
    sort again, stably.
    """
    order = np.argsort(x)
    xs = x[order]
    if np.any(xs[1:] == xs[:-1]):
        order = np.argsort(x, kind="stable")
        xs = x[order]
    return order, xs


def _run_sums(starts, counts, terms):
    """Sums of terms over the runs [starts[j], starts[j] + counts[j]).

    The walker of every ragged sum, one run per level: the occupation
    support, the sorted compensator's band and the near bins' jumps. The
    runs are packed in order into tiles of at most _PAIR_TILE terms; a
    longer run goes in a tile of its own. ``terms(rows, at)`` returns a
    tile's terms from each term's run ``rows`` and index ``at``. Each run
    is summed as one slice, so its float depends only on its own terms,
    not on the runs that share its tile; an empty run gives exactly 0.0.
    """
    out = np.zeros(len(counts))
    runs = np.flatnonzero(counts)
    ends = np.cumsum(counts[runs])
    lo = 0
    while lo < len(runs):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_TILE,
                                             side="right")))
        rows, n = runs[lo:hi], counts[runs[lo:hi]]
        heads = ends[lo:hi] - n - base
        at = np.repeat(starts[rows] - heads, n)
        at += np.arange(len(at))
        values = terms(np.repeat(rows, n), at)
        out[rows] = [np.add.reduce(values[head:head + size])
                     for head, size in zip(heads.tolist(), n.tolist())]
        lo = hi
    return out


# ------------------------------------------------------------- occupation

def occupation_curve(path: PathSample, a_grid,
                     moll: MollifierSpec) -> np.ndarray:
    """Occupation estimates (Riemann sums of rho_n(X_s - a) ds) over levels.

    The points within the mollifier's support ``width`` (1/n) of the
    levels are sorted by value once, ties in time order. A level's points
    within its support are a run of that order found by two searches, and
    its terms moll(x - a) * dt are summed as one slice in that order. The
    terms of all (level, point) pairs are evaluated in one pass over tiles
    of whole levels' runs. So a level's float depends only on the path and
    the level, not on the levels asked for with it, and a level no point
    reaches gives exactly 0.0.
    """
    levels = _level_grid(a_grid)
    x, dt = path.values[:-1], np.diff(path.times)
    width = moll.width
    near = np.flatnonzero((x >= levels.min(initial=np.inf) - width)
                          & (x <= levels.max(initial=-np.inf) + width))
    order, x_sorted = _value_order(x[near])
    by_value = near[order]
    starts = np.searchsorted(x_sorted, levels - width, side="left")
    counts = np.searchsorted(x_sorted, levels + width, side="right") - starts

    def terms(rows, at):
        at = by_value[at]
        out = moll(x[at] - levels[rows])
        out *= dt[at]
        return out

    return _run_sums(starts, counts, terms)


# -------------------------------------------------------------- martingale

class _CompensatorTable(NamedTuple):
    """G_eps tabulated for one (params, eps); every array is read-only.

    ``nodes`` run 40 per decade over 1e-2 eps <= |x| <= 1e3, mirrored, plus
    0, and ``node_values`` are G_eps there in closed form, NaN at the node
    0 (see ``_compensator_at``). The sorted route reads the same table as
    chord cells [edges[j], edges[j+1]): the edges are -inf, the nodes at
    least _NEAR_EPS eps from 0, and inf. On cell j the table is value[j] +
    slope[j] (x - left[j]), a chord between two nodes or a clamped end of
    slope 0; the cell ``band`` spans 0 and has value and slope 0, since
    its points are evaluated one by one.
    """

    params: StableParams
    eps: float
    nodes: np.ndarray
    node_values: np.ndarray
    edges: np.ndarray
    left: np.ndarray
    value: np.ndarray
    slope: np.ndarray
    band: int


@lru_cache(maxsize=8)
def compensator_table(params: StableParams, eps: float) -> _CompensatorTable:
    """The one table of G_eps per (params, eps) that both routes read."""
    x_min = 1e-2 * eps
    n_nodes = int(round(math.log10(1e3 / x_min) * 40)) + 1
    mags = np.geomspace(x_min, 1e3, n_nodes)
    nodes = np.concatenate([-mags[::-1], [0.0], mags])
    node_values = compensator_density(params, nodes, eps)
    node_values[n_nodes] = np.nan
    outside = np.abs(nodes) >= _NEAR_EPS * eps
    inner, y = nodes[outside], node_values[outside]
    edges = np.concatenate([[-np.inf], inner, [np.inf]])
    value = np.concatenate([y[:1], y])
    slope = np.concatenate([[0.0], np.diff(y) / np.diff(inner), [0.0]])
    left = np.concatenate([[0.0], inner])
    band = int(np.count_nonzero(inner < 0.0))
    value[band] = slope[band] = 0.0
    for array in (nodes, node_values, edges, left, value, slope):
        array.flags.writeable = False
    return _CompensatorTable(params, eps, nodes, node_values, edges, left,
                             value, slope, band)


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


def _two_sum_error(a, b, s):
    """a + b - s exactly, for s = fl(a + b): the rounding error of one
    addition (Knuth's TwoSum), the one place that forms it, as
    (a - (s - back)) + (b - back) with back = s - a.

    It works in place in two arrays: written as one expression it makes
    four temporaries as long as a path, which cost ~470 minor faults a
    call at 28.5k points and doubled the time of ``_sorted_prefix_sums``.
    """
    back = s - a
    err = s - back
    np.subtract(a, err, out=err)
    return np.add(err, np.subtract(b, back, out=back), out=err)


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


def _sorted_sums(table: _CompensatorTable, levels, ends, x, dt):
    """Per-level sums of G_eps(x - a) dt over each prefix x[:end], one row
    per end, from one sort of the points in the stable order.

    The stable order restricted to a prefix is that prefix's stable order,
    so a row is the call for that end alone. A cell's points are a run of
    the prefix's order, whose weight W and moment X_c about the prefix's
    midrange c come from the prefix sums; the chord's sum over the run is
    value W + slope (X_c - (a - c + left) W), whose rounding does not grow
    with |a|. The band's points are evaluated as the tiled route does, and
    each level's band terms are summed as one slice (``_run_sums``).
    """
    order, _ = _value_order(x[:ends[-1]])
    out = np.empty((len(ends), len(levels)))
    # tiles of levels by cells whose 2 x 2 prefix sums hold _PAIR_TILE floats
    tiles = _row_tiles(len(levels), 4 * len(table.value))
    band = np.empty((2, len(levels)), dtype=np.intp)
    for row, end in enumerate(ends):
        at = order[order < end]
        xs, dts = x[at], dt[at]
        c = 0.5 * xs[0] + 0.5 * xs[-1]  # (xs[0] + xs[-1]) / 2 may overflow
        sums = _sorted_prefix_sums(xs, dts, c)
        # the cells' edges about c, where a + edge would round to a once
        # ulp(a) exceeds the inner edges
        xs_c = xs - c
        for rows in tiles:
            block = levels[rows, None]
            at = np.searchsorted(xs_c, (block - c) + table.edges)
            w, moment = np.diff(np.take(sums, at, axis=-1)).sum(axis=0)
            out[row, rows] = (
                table.value * w + table.slope * (
                    moment - (block - c + table.left) * w)).sum(axis=1)
            band[:, rows] = at[:, table.band:table.band + 2].T
        out[row] += _run_sums(band[0], band[1] - band[0], lambda rows, at: (
            _compensator_at(table, xs[at] - levels[rows]) * dts[at]))
    return out


def _jump_terms(params: StableParams, y, h, post_less_a):
    """F(post - a) - F(pre - a) per jump, free of cancellation: the one
    place where ``martingale_part`` forms a jump's kernel increment.

    A jump is (pre, h), with pre = values[k] - h for a jump recorded at
    grid row k. With y = pre - a, a jump that keeps the sign of y + h adds
    F(y) expm1((alpha - 1) log1p(h / y)), exact to rounding however small
    h is against y; the rest (a crossing, y = 0, or an h / y that
    overflows, where that form is not finite) add F(post - a) - F(y),
    which does not cancel there. ``post_less_a(mask)`` gives post - a
    for those jumps alone. So a level within rounding of a post-jump
    value reads F at pre + h - a, not at values[k] - a: F's
    |x|^(alpha - 1) cusp makes the two differ by the order of F(ulp(x)),
    1.6e-5 at alpha 1.3 and x = 1000.
    """
    out = kernel_F(params, y)
    # the direct entries' NaN and inf are overwritten below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(h, y)
        np.log1p(ratio, out=ratio)
        direct = ~np.isfinite(ratio)
        ratio *= params.alpha - 1.0
        out *= np.expm1(ratio, out=ratio)
    if direct.any():
        out[direct] = (kernel_F(params, post_less_a(direct))
                       - kernel_F(params, y[direct]))
    return out


def _walked_jumps(params: StableParams, levels, ends, pre, h, post):
    """Per-level sums of ``_jump_terms`` over each prefix of the jumps
    (pre, h, post) up to ``ends``, every level with every jump: the one
    dense walk (``_tiled_levels``) of both routes' jump sums."""
    return _tiled_levels(levels, ends, lambda b, pre, h, post: _jump_terms(
        params, pre - b, h, lambda m: (post - b)[m]), pre, h, post)


def _two_difference(x, c):
    """x - c as s + e exactly: s the float difference, e its rounding
    error."""
    s = x - c
    return s, _two_sum_error(x, -c, s)


def _jump_bins(params: StableParams, pre, h):
    """The bins of ``_expanded_jump_sums``: the midrange c of the pre-jump
    values, which jumps are binned, those in bin order, where each bin
    starts among them, each bin's centre less c, and its moments times
    binom(alpha - 1, m), one row per order m. Its temporaries, as long as
    the jump record, are freed on return, so the direct sums reuse their
    memory instead of growing a heap that is trimmed and faulted back in.
    """
    c = 0.5 * pre.min() + 0.5 * pre.max()  # (lo + hi) / 2 may overflow
    # pre - c and a - c as exact pairs s + e, so each jump's offset v from
    # its bin's centre, and each bin's offset Y from a level, are right to
    # rounding however far the values lie from c
    half = 0.5 * h
    v, err = _two_difference(pre, c)
    key = v + half
    with np.errstate(over="ignore"):
        key /= _JUMP_BIN
    np.floor(key, out=key)
    centre = key + 0.5
    centre *= _JUMP_BIN
    v -= centre
    v += err
    # a jump whose midpoint rounded into a neighbouring bin stays direct
    small = np.abs(h) <= _JUMP_SMALL
    small &= np.abs(half + v) <= 0.5 * _JUMP_BIN
    binned = np.flatnonzero(small)
    key = key[binned]
    key -= key.min(initial=np.inf)
    # a stable sort of 16-bit keys is a radix sort
    order = np.argsort(key.astype(np.uint16) if key.max(initial=0.0) < 2**16
                       else key, kind="stable")
    binned = binned[order]
    starts = np.flatnonzero(np.diff(key[order], prepend=-1.0))
    centres = centre[binned[starts]]
    moments = np.empty((_JUMP_ORDER, len(starts)))
    if len(binned):
        # the moments of each bin, one order at a time: d_m = u^m - v^m
        # and q_m = v^(m-1) h
        vs, h_near = v[binned], h[binned]
        us = vs + h_near
        d, q = h_near.copy(), h_near.copy()
        for m in range(_JUMP_ORDER):
            if m:
                q *= vs
                d *= us
                d += q
            moments[m] = np.add.reduceat(d, starts)
        # binom(alpha - 1, m) = prod over j <= m of (alpha - j) / j
        j = np.arange(1.0, _JUMP_ORDER + 1.0)
        moments *= np.cumprod((params.alpha - j) / j)[:, None]
    return c, small, binned, starts, centres, moments


def _expanded_jump_sums(params: StableParams, levels, pre, post, h):
    """Per-level sums of F(post - a) - F(pre - a) over the jumps given.

    Jumps of size at most _JUMP_SMALL go into bins _JUMP_BIN wide by
    pre - c + h/2, c the midrange of the pre-jump values. Each bin holds
    the moments mu_m = sum(u^m - v^m), m <= _JUMP_ORDER, of v, the
    pre-jump value less c and the bin's centre, and u = v + h, built by
    the recursion d_m = u d_(m-1) + v^(m-1) h. A bin whose centre lies at
    Y, |Y| >= _JUMP_NEAR, from a - c adds
    F(Y) sum_m binom(alpha - 1, m) mu_m Y^(-m), by Horner; v and Y are
    formed from exact differences, so neither loses digits to |x - c|.
    The jumps of the nearer bins and the jumps left out of the bins (the
    larger ones, and those whose midpoint rounded into a neighbouring bin)
    add ``_jump_terms`` directly, from the original floats. A level adds
    three parts in this order, each reduced on its own: a row over all
    bins with the near ones zero; its run of near jumps, one slice
    (``_run_sums``); and the jumps left out, walked in time order by
    ``_walked_jumps``. So its float depends only on the jumps and the
    level. Tiles of pairs keep every temporary below 128 KiB, bar a run
    longer than a tile.
    """
    out = np.zeros(len(levels))
    if not len(h):
        return out
    c, small, binned, starts, centres, moments = _jump_bins(params, pre, h)
    # each level's near bins, |Y| < _JUMP_NEAR, are bins[first:stop]
    first = np.zeros(len(levels), dtype=np.intp)
    stop = np.zeros(len(levels), dtype=np.intp)
    if len(binned):
        # the far bins, a tile of levels by all bins at a time; Y rises
        # with the bin, so the near ones are a run
        level_s, level_e = _two_difference(levels, c)
        for rows in _row_tiles(len(levels), len(centres)):
            y = centres - level_s[rows, None]
            y -= level_e[rows, None]
            np.sum(y <= -_JUMP_NEAR, axis=1, out=first[rows])
            np.sum(y < _JUMP_NEAR, axis=1, out=stop[rows])
            near = np.abs(y) < _JUMP_NEAR
            y[near] = _JUMP_NEAR
            t = 1.0 / y
            acc = moments[-1] * t
            for m in range(_JUMP_ORDER - 2, -1, -1):
                acc += moments[m]
                acc *= t
            acc *= kernel_F(params, y)
            acc[near] = 0.0
            out[rows] = acc.sum(axis=1)
    # each level's run of its near bins' jumps
    pre_b, h_b = pre[binned], h[binned]
    bounds = np.append(starts, len(binned))

    def terms(rows, at):
        a = levels[rows]
        y = pre_b[at]
        y -= a
        return _jump_terms(params, y, h_b[at],
                           lambda m: post[binned[at[m]]] - a[m])

    out += _run_sums(bounds[first], bounds[stop] - bounds[first], terms)
    # then the jumps left out of the bins, each added to every level
    rest = np.flatnonzero(~small)
    out += _walked_jumps(params, levels, [len(rest)], pre[rest], h[rest],
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
    one level), or an increasing 1-D array of horizons, all read off one
    walk over the path (the result then has shape
    ``(len(checkpoints),) + np.shape(a)``).

    For fewer than _SORT_LEVELS levels both sums go point by point
    (``_tiled_levels``), the jumps by ``_walked_jumps``; from there up the
    jumps go by a far-field expansion of binned jump moments
    (``_expanded_jump_sums``, one call per checkpoint, with each level's
    near bins' jumps as a run and the jumps it does not bin through
    ``_walked_jumps``) and the compensator cell by cell (``_sorted_sums``).
    Across the two routes a level's value agrees within 1.3e-16 of the
    sum of its terms' magnitudes (measured at 15 and 16 levels, a level on
    a post-jump value among them), and a checkpoint's row is the call at
    that checkpoint alone.
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
        out = np.array([_expanded_jump_sums(params, levels, pre[:end],
                                            post[:end], h[:end])
                        for end in jump_ends])
        out -= _sorted_sums(table, levels, ends, x, dt)
    else:
        out = _walked_jumps(params, levels, jump_ends, pre, h, post)
        out -= _tiled_levels(
            levels, ends, lambda b, x, dt: _compensator_at(table, x - b) * dt,
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

def martingale_l2_bound(params: StableParams, t: float,
                        eps0: float | None = None) -> float:
    """The square-integrability bound on E[(M^a_t)^2], in closed form.

    Integrates the kernel-increment growth bound against the jump measure:
    the far field contributes 8 D^2 (c+ + c-) t/(2-alpha); the near field
    couples to the uniform negative-moment bound S s^(-gamma/alpha) on
    E|X_s - a|^(-gamma), gamma = 2 + e0 - alpha, whose integral over
    [0, t] is S t^(1-gamma/alpha) / (1 - gamma/alpha).
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t!r}")
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
