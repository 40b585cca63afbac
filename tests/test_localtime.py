"""Local-time curve tests.

Deterministic collapses (constant paths), the Fubini identity behind the
occupation estimator, relabeling/reflection symmetries, and reduced-scale
Monte Carlo versions of the martingale-mean and estimator-agreement
properties. MC assertions run on frozen seeds with margins measured at
calibration time; each records its measured value next to the bound.
"""

import hashlib
import math
import resource
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from stable_tanaka import derive_params, localtime
from stable_tanaka.kernel import (
    MollifierSpec,
    compensator_density,
    kernel_convolve,
    kernel_F,
    standard_bump,
)
from stable_tanaka.localtime import (
    _PAIR_TILE,
    _SORT_LEVELS,
    _TILE_POINTS,
    _compensator_at,
    _sorted_prefix_sums,
    _sorted_sums,
    _tiled_levels,
    compensator_table,
    default_a_grid,
    default_mollifier,
    hat_function,
    martingale_l2_bound,
    martingale_part,
    occupation_curve,
    occupation_formula_check,
    tanaka_curve,
)
from stable_tanaka.pathsim import PathSample, SimConfig, \
    simulate_path_jumpdecomp, simulate_path_marginal
from stable_tanaka.spectral import Grid, generator_apply_windowed

SYM = derive_params(1.5, 1.0, 1.0)


def constant_path(x, eps=1e-2, n_steps=64, T=1.0):
    cfg = SimConfig(T=T, n_steps=n_steps, eps=eps, seed=0, x0=x)
    times = np.linspace(0.0, T, n_steps + 1)
    return PathSample(times=times, values=np.full(n_steps + 1, x),
                      jump_rows=(), jump_sizes=(), scheme="jumpdecomp",
                      config=cfg)


def test_default_mollifier_tie():
    # n = eps^(-1/2), rounded
    assert default_mollifier(1e-2).n == 10
    assert default_mollifier(1e-3).n == 32
    assert default_mollifier(0.999).n == 1


@pytest.mark.parametrize("eps", [0.0, -1e-3, 1.0, 2.0, math.nan, math.inf])
def test_default_mollifier_refuses_cutoff_outside_unit_interval(eps):
    # eps^(-1/2) divides by zero at 0, is complex below 0 and does not
    # round at NaN; at 1 and above, eps is no jump cutoff
    with pytest.raises(ValueError, match="eps"):
        default_mollifier(eps)


def test_hat_function():
    g = hat_function(0.5, 2.0)
    assert g(0.5) == 1.0
    assert g(1.5) == pytest.approx(0.5)
    assert g(3.0) == 0.0
    np.testing.assert_allclose(g([0.5, -1.5]), [1.0, 0.0])
    with pytest.raises(ValueError):
        hat_function(0.0, 0.0)


# --------------------------------------------------- deterministic collapses

def test_constant_path_martingale_is_minus_t_compensator():
    path = constant_path(0.7)
    a = 0.2
    m = martingale_part(SYM, path, a)
    exact = compensator_density(SYM, 0.7 - a, 1e-2)
    # node interpolation is the only error source; measured rel 2.5e-4
    assert abs(m + exact) < 2e-3 * abs(exact)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
@pytest.mark.parametrize("params", [SYM, derive_params(1.5, 3.0, 1.0)])
def test_compensator_interpolation_budget(params, eps):
    # M interpolates G_eps linearly between closed-form nodes (40 per
    # decade from 1e-2 eps to 1e3, mirrored) and clamps beyond them. On a
    # constant path M = -T G_eps(x - a) up to that interpolation; measured
    # error <= 3.3e-3 (symmetric) and 5.2e-3 (skewed) of the largest |G|
    # within one node spacing
    offsets = np.geomspace(1.3e-2 * eps, 900.0, 60)
    for x in np.concatenate([offsets, -offsets]):
        m = martingale_part(params, constant_path(x, eps=eps), 0.0)
        near = compensator_density(
            params, x * np.array([1 / 1.06, 1.0, 1.06]), eps)
        assert abs(m + near[1]) <= 1e-2 * np.abs(near).max(), x
    # inside the innermost cell G_eps has its |x|^(alpha-1) cusp, where a
    # chord to the node at 0 errs by up to 1.7% of G(0); M must use the
    # closed form there
    cusp = np.geomspace(1e-4 * eps, 0.9e-2 * eps, 12)
    for x in np.concatenate([cusp, -cusp, [0.0]]):
        m = martingale_part(params, constant_path(x, eps=eps), 0.0)
        exact = compensator_density(params, x, eps)
        assert abs(m + exact) <= 1e-6 * abs(exact), x
    far = martingale_part(params, constant_path(1e6, eps=eps), 0.0)
    assert far == martingale_part(params, constant_path(1e3, eps=eps), 0.0)


def test_constant_path_tanaka_is_t_compensator():
    path = constant_path(0.7)
    est = float(tanaka_curve(SYM, path, [0.2])[0])
    exact = compensator_density(SYM, 0.5, 1e-2)
    assert exact > 0.0
    assert abs(est - exact) < 2e-3 * abs(exact)
    # on a constant path the kernel route is -M, and halving the horizon
    # halves it
    half = -martingale_part(SYM, path, 0.2, 0.5)
    assert abs(half - 0.5 * est) < 1e-12


def test_constant_path_occupation_at_level():
    path = constant_path(0.7)
    moll = MollifierSpec(8)
    est = occupation_curve(path, [0.7], moll)
    assert est.shape == (1,)
    assert est[0] == pytest.approx(float(moll(0.0)) * 1.0, rel=1e-14)


def test_constant_path_occupation_no_visit_is_zero():
    path = constant_path(0.7)
    assert occupation_curve(path, [3.0], MollifierSpec(8))[0] == 0.0


# ------------------------------------------------------------------- errors

def test_martingale_requires_jump_record():
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, seed=1)
    path = simulate_path_marginal(SYM, cfg)
    with pytest.raises(ValueError, match="jump record"):
        martingale_part(SYM, path, 0.0)
    with pytest.raises(ValueError, match="jump record"):
        tanaka_curve(SYM, path, [0.0])


def test_bad_mode_and_horizon_rejected():
    path = constant_path(0.7)
    with pytest.raises(ValueError, match="horizon"):
        martingale_part(SYM, path, 0.0, checkpoints=2.0)
    with pytest.raises(ValueError, match="horizon"):
        martingale_part(SYM, path, 0.0, checkpoints=-0.5)
    for bad in ([0.5, 0.25], [0.5, 0.5], [0.5, math.nan, 0.75]):
        with pytest.raises(ValueError, match="increasing"):
            martingale_part(SYM, path, 0.0, checkpoints=bad)
    with pytest.raises(ValueError, match="horizon"):
        martingale_part(SYM, path, 0.0, checkpoints=[0.5, 1.5])
    # the slack past the horizon is a few ulps of it: 1e-13 is 1e7 horizons
    # at T = 1e-20, where an absolute 1e-12 forgave it and returned M at T,
    # while 3 * 0.1 rounds one ulp above T = 0.3 and reads M at T
    tiny = simulate_path_jumpdecomp(SYM, SimConfig(T=1e-20, n_steps=8,
                                                   eps=0.5, seed=1))
    with pytest.raises(ValueError, match="horizon"):
        martingale_part(SYM, tiny, 0.0, checkpoints=1e-13)
    short = simulate_path_jumpdecomp(SYM, SimConfig(T=0.3, n_steps=64,
                                                    eps=1e-2, seed=1))
    assert 3 * 0.1 == np.nextafter(0.3, 1.0)
    assert martingale_part(SYM, short, 0.0, checkpoints=3 * 0.1) \
        == martingale_part(SYM, short, 0.0)
    # the grid step is 1/64: 0.01 covers no step, alone or first in a list
    for bad in (0.01, [0.01, 0.5]):
        with pytest.raises(ValueError, match="grid step"):
            martingale_part(SYM, path, 0.0, checkpoints=bad)
    # the checkpoints read prefixes of the jump record, so it must be in
    # time order
    with pytest.raises(ValueError, match="non-decreasing"):
        PathSample(times=path.times, values=path.values, jump_rows=[32, 16],
                   jump_sizes=[0.1, 0.1], scheme="jumpdecomp")


# ------------------------------------------------------------ curve helpers

def test_curves_match_pointwise_estimators():
    cfg = SimConfig(T=1.0, n_steps=256, eps=1e-2, seed=9)
    path = simulate_path_jumpdecomp(SYM, cfg)
    moll = default_mollifier(cfg.eps)
    levels = np.array([-1.0, -0.2, 0.0, 0.4, 1.3])
    occ = occupation_curve(path, levels, moll)
    tan = tanaka_curve(SYM, path, levels)
    for j, a in enumerate(levels):
        # a pointwise estimate is the one-level curve, and a level's value
        # does not depend on the levels asked for with it
        assert occ[j] == occupation_curve(path, [a], moll)[0]
        assert tan[j] == tanaka_curve(SYM, path, [a])[0]
    # the same over a default grid of 201 levels
    levels = default_a_grid(path)
    occ = occupation_curve(path, levels, moll)
    for a, value in zip(levels[::20], occ[::20]):
        assert np.array_equal(_bits(occupation_curve(path, [a], moll)),
                              _bits([value]))


def test_curves_refuse_non_finite_levels():
    # a NaN level would give an occupation of 0.0 and a NaN kernel-route
    # value, and an infinite one an overflow inside F; both are refused
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, seed=9)
    path = simulate_path_jumpdecomp(SYM, cfg)
    calls = [partial(occupation_curve, path, [np.nan],
                     default_mollifier(cfg.eps)),
             partial(tanaka_curve, SYM, path, [0.0, np.nan]),
             partial(tanaka_curve, SYM, path, [np.inf]),
             partial(martingale_part, SYM, path, -np.inf),
             partial(martingale_part, SYM, path, [[0.0], [np.nan]])]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_curves_take_a_1d_grid_of_levels():
    # a scalar or a 2-D grid is refused by both curves; an empty grid gives
    # an empty curve
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, seed=9)
    path = simulate_path_jumpdecomp(SYM, cfg)
    curves = [partial(occupation_curve, path, moll=default_mollifier(cfg.eps)),
              partial(tanaka_curve, SYM, path)]
    for curve in curves:
        for bad in (0.0, [[0.0, 0.5], [1.0, 1.5]]):
            with pytest.raises(ValueError, match="1-D"):
                curve(bad)
        assert curve([]).shape == (0,)


@pytest.mark.parametrize("params", [SYM, derive_params(1.5, 1.0, 0.0)],
                         ids=["symmetric", "one-sided"])
@pytest.mark.parametrize("t", [None, 0.5, "checkpoints"])
def test_martingale_levels_array_matches_scalar_calls(params, t):
    # 2 * levels-per-tile + 3 levels cross two tile edges (both records
    # are longer than a chunk, so their tiles hold 2 levels), and up to t
    # the path has more than one point chunk of grid points and of jumps;
    # each level's value must not depend on the levels that share its
    # tile, and each row of a checkpoint array must be the call at that
    # checkpoint
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=4)
    path = simulate_path_jumpdecomp(params, cfg, path_index=1)
    if t == "checkpoints":
        # the compensator sum's prefix ends exactly on a chunk edge, the
        # jump sum's prefix ends exactly on one, both end mid-chunk, and T
        edges = [path.times[_TILE_POINTS], path.jump_times[_TILE_POINTS - 1]]
        t = np.array(sorted(edges) + [0.77, cfg.T])
        assert np.all(np.diff(t) > 0.0)
        assert np.searchsorted(path.times, 0.77, side="right") - 1 \
            not in (_TILE_POINTS, 2 * _TILE_POINTS, 3 * _TILE_POINTS)
    horizon = cfg.T if t is None else np.max(t)
    assert np.sum(path.jump_times <= horizon) > _TILE_POINTS
    assert np.sum(path.times <= horizon) > _TILE_POINTS + 1
    height = _PAIR_TILE // _TILE_POINTS
    assert height == 2
    levels = np.linspace(path.values.min() - 0.5, path.values.max() + 0.5,
                         2 * height + 3)
    curve = martingale_part(params, path, levels, t)
    assert isinstance(curve, np.ndarray)
    assert curve.shape == np.shape(t) + levels.shape
    for h, row in zip([t] if np.ndim(t) == 0 else t,
                      [curve] if np.ndim(t) == 0 else curve):
        assert np.array_equal(row, martingale_part(params, path, levels, h))
        for a, m in zip(levels, row):
            scalar = martingale_part(params, path, float(a), h)
            assert type(scalar) is float
            assert scalar == m


@pytest.mark.parametrize("params", [SYM, derive_params(1.3, 3.0, 1.0)],
                         ids=["symmetric", "skewed"])
def test_tiled_sums_match_exact_summation(params):
    # the tiles change only the order of summation: each level's sum must
    # agree with a correctly rounded math.fsum of its terms, the jumps'
    # cancellation-free ones, within 1e-15 of the sum of their magnitudes.
    # Measured <= 3.8e-17; F(post - a) - F(pre - a) summed in the tiles
    # missed by up to 5.0e-15 (skewed)
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=8)
    path = simulate_path_jumpdecomp(params, cfg, path_index=2)
    moll = default_mollifier(cfg.eps)
    lefts, dts = path.values[:-1], np.diff(path.times)
    # the rows are checked against an independent search of the grid
    rows = np.searchsorted(path.times, path.jump_times)
    assert np.array_equal(rows, path.jump_rows)
    post = path.values[rows]
    pre = post - path.jump_sizes
    g = partial(_compensator_at, compensator_table(params, cfg.eps))
    levels = np.concatenate([np.quantile(path.values, [0.1, 0.5, 0.9]),
                             [path.values.max() + 0.5]])
    occ = occupation_curve(path, levels, moll)
    mart = martingale_part(params, path, levels)
    for j, a in enumerate(levels):
        terms = moll(lefts - a) * dts
        assert abs(occ[j] - math.fsum(terms)) \
            <= 1e-12 * np.abs(terms).sum(), a
        jumps, size = _exact_jump_sum(params, pre, post, path.jump_sizes, a)
        terms = -(g(lefts - a) * dts)
        assert abs(mart[j] - math.fsum([jumps, *terms])) \
            <= 1e-15 * (size + np.abs(terms).sum()), a


def _dense_occupation(path, levels, moll):
    # every level sums moll(x - a) * dt over the points within its support,
    # found by a scan of the whole path, in value order with ties in time
    # order
    x, dt = path.values[:-1], np.diff(path.times)
    out = []
    for a in levels:
        at = np.flatnonzero((x >= a - moll.width) & (x <= a + moll.width))
        at = at[np.lexsort((at, x[at]))]
        out.append(np.sum(moll(x[at] - a) * dt[at]))
    return np.array(out)


@pytest.mark.parametrize("n", [None, 1], ids=["default", "n=1"])
def test_occupation_support_walk_matches_dense_rows(n):
    # only the points within 1/n of a level are evaluated, found in one
    # sort of the path, and each level's terms are summed as one slice in
    # value order, ties in time order, so every level has the bits of a
    # scan of the whole path: over unsorted and repeated levels, a path of
    # more than one point chunk, levels past the path's range, which must
    # give exactly 0.0, and a drop-mode path whose values tie
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=3)
    path = simulate_path_jumpdecomp(derive_params(1.3, 3.0, 1.0), cfg)
    assert len(path.times) > 2 * _TILE_POINTS
    moll = default_mollifier(cfg.eps) if n is None else MollifierSpec(n)
    rng = np.random.default_rng(5)
    grid = default_a_grid(path)
    hi, lo = path.values.max(), path.values.min()
    beyond = [hi + 2.0 * moll.width, lo - 2.0 * moll.width, hi + 1e6]
    levels = np.concatenate([rng.permutation(grid), grid[::17],
                             path.values[rng.integers(0, len(path.values), 9)],
                             beyond])
    got = occupation_curve(path, levels, moll)
    want = _dense_occupation(path, levels, moll)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got[-3:].view(np.int64), np.zeros(3, np.int64))
    # flat between jumps: 3594 of 7689 points are distinct
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=1,
                    small_jump_mode="drop")
    path = simulate_path_jumpdecomp(derive_params(1.1, 1.0, 1.0), cfg)
    assert len(np.unique(path.values[:-1])) < len(path.values) // 2
    levels = np.concatenate([default_a_grid(path),
                             path.values[rng.integers(0, len(path.values), 9)]])
    got = occupation_curve(path, levels, moll)
    want = _dense_occupation(path, levels, moll)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a short path, visited at one level only
    path = constant_path(0.7)
    levels = np.array([0.7, 3.0, 0.7 + moll.width / 2, 0.7])
    got = occupation_curve(path, levels, moll)
    assert np.array_equal(got.view(np.int64),
                          _dense_occupation(path, levels, moll).view(np.int64))
    assert got[1] == 0.0 and got[0] == got[3] > 0.0


@pytest.mark.parametrize("params", [derive_params(1.3, 3.0, 1.0), SYM],
                         ids=["level-curve", "criterion-7"])
def test_occupation_matches_exact_summation(params):
    # each level's terms, summed in value order, against a correctly
    # rounded math.fsum of the same terms over the default grid, at the
    # level-curve and the criterion-7 shapes: all terms are positive, so
    # the bar is relative to the level's value. Measured <= 4.3e-16
    moll = default_mollifier(1e-3)
    for seed in (1, 2):
        cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=seed)
        path = simulate_path_jumpdecomp(params, cfg)
        x, dt = path.values[:-1], np.diff(path.times)
        levels = default_a_grid(path)
        got = occupation_curve(path, levels, moll)
        assert np.count_nonzero(got) > 100
        for a, value in zip(levels, got):
            exact = math.fsum(moll(x - a) * dt)
            assert abs(value - exact) <= 1e-14 * exact, (seed, a)


@pytest.mark.parametrize("eps", [1e-3, 0.5])
@pytest.mark.parametrize("params", [SYM, derive_params(1.3, 3.0, 1.0)],
                         ids=["symmetric", "skewed"])
def test_compensator_interp_pins_chord_and_cusp(params, eps):
    # the chord through nodes 40 per decade over 1e-2 eps <= |x| <= 1e3,
    # with the closed form at |x| < 1e-2 eps: the NaN node at 0 must send
    # exactly those points to the closed form, and leave every chord
    x_min = 1e-2 * eps
    mags = np.geomspace(x_min, 1e3,
                        int(round(math.log10(1e3 / x_min) * 40)) + 1)
    nodes = np.concatenate([-mags[::-1], [0.0], mags])
    node_values = compensator_density(params, nodes, eps)

    def chord_then_cusp(x):
        out = np.interp(x, nodes, node_values)
        cusp = np.abs(x) < x_min
        out[cusp] = compensator_density(params, x[cusp], eps)
        return out

    edges = [0.0, -0.0, x_min, -x_min, np.nextafter(x_min, 0.0),
             np.nextafter(-x_min, 0.0), 2e3, -2e3]
    spread = np.geomspace(1e-3 * x_min, 1e4, 2001)
    x = np.concatenate([edges, spread, -spread])
    got = _compensator_at(compensator_table(params, eps), x)
    assert np.array_equal(got.view(np.int64),
                          chord_then_cusp(x).view(np.int64))


# ------------------------------------------------------ sorted compensator

LEVEL_CURVE = derive_params(1.3, 3.0, 1.0)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("triplet, mode", [
    ((1.1, 1.0, 1.0), "gaussian"), ((1.5, 1.0, 1.0), "gaussian"),
    ((1.3, 3.0, 1.0), "gaussian"), ((1.5, 1.0, 0.0), "gaussian"),
    ((1.8, 0.0, 1.0), "gaussian"), ((1.1, 1.0, 1.0), "drop")],
    ids=["1.1-symmetric", "1.5-symmetric", "1.3-skewed", "1.5-one-sided",
         "1.8-one-sided", "1.1-symmetric-drop"])
def test_sorted_compensator_matches_exact_summation(triplet, mode, eps):
    # the sorted route sums each table cell's chord from double-double
    # prefix sums and evaluates the points within 100 eps of the level one
    # by one; against a correctly rounded math.fsum of the direct route's
    # terms it must agree within 1e-14 of their magnitudes, at three
    # starting points. Without drift or gaussian noise ("drop") the path
    # is flat between jumps, so many points tie: at 1.1 and eps 1e-3 only
    # 3594 of 7689 are distinct. Measured <= 8.8e-15 (1.1, gaussian, eps
    # 1e-3, x0 = 0); moments about 0 instead of the path's midrange miss
    # by up to 1.0e-12 at x0 = 1000, prefix sums without their lo parts
    # by up to 3.9e-12 and a band of 10 eps by up to 1.1e-13
    params = derive_params(*triplet)
    table = compensator_table(params, eps)
    for x0 in (0.0, 10.0, 1000.0):
        cfg = SimConfig(T=1.0, n_steps=4096, eps=eps, seed=1,
                        small_jump_mode=mode, x0=x0)
        path = simulate_path_jumpdecomp(params, cfg)
        x, dt = path.values[:-1], np.diff(path.times)
        levels = default_a_grid(path)
        got = _sorted_sums(table, levels, x, dt)
        for a, total in zip(levels, got):
            terms = _compensator_at(table, x - a) * dt
            assert abs(total - math.fsum(terms)) \
                <= 1e-14 * np.abs(terms).sum(), (x0, a)


def test_sorted_compensator_finite_near_the_largest_double():
    # the moments are taken about the midrange 0.5 lo + 0.5 hi, since
    # (lo + hi) / 2 overflows for a path near the largest double; the
    # levels stay off the path, whose values are all 1.7e308
    cfg = SimConfig(T=1.0, n_steps=256, eps=1e-2, seed=1, x0=1.7e308)
    path = simulate_path_jumpdecomp(SYM, cfg)
    x, dt = path.values[:-1], np.diff(path.times)
    levels = np.linspace(1.65e308, 1.75e308, _SORT_LEVELS)
    assert np.all(x == 1.7e308) and np.all(levels != 1.7e308)
    table = compensator_table(SYM, cfg.eps)
    got = _sorted_sums(table, levels, x, dt)
    assert np.all(np.isfinite(martingale_part(SYM, path, levels)))
    for a, total in zip(levels, got):
        terms = _compensator_at(table, x - a) * dt
        assert abs(total - math.fsum(terms)) \
            <= 1e-14 * np.abs(terms).sum(), a


@pytest.mark.parametrize("x0", [1e15, 1e17])
def test_many_level_sums_hold_where_ulp_exceeds_the_inner_cells(x0):
    # at x0 = 1e15 and 1e17 a level a sits where ulp(a) exceeds the sorted
    # compensator's inner cell edges (+-100 eps), so a + edge rounds to a;
    # its cells are found about the prefix's midrange instead. 16 levels,
    # all at a path point: searching a + edges gave 0.0546618 against
    # 0.0546764 at 1e15 and 0.00128 against 47.7 at 1e17. The jump sum's
    # bins are taken about the midrange too
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, seed=1, x0=x0)
    path = simulate_path_jumpdecomp(SYM, cfg)
    x, dt = path.values[:-1], np.diff(path.times)
    levels = np.full(_SORT_LEVELS, path.values[0])
    table = compensator_table(SYM, cfg.eps)
    got = _sorted_sums(table, levels, x, dt)
    terms = _compensator_at(table, x - levels[0]) * dt
    assert np.all(np.abs(got - math.fsum(terms))
                  <= 1e-14 * np.abs(terms).sum()), got
    pre, post, h = _jumps(path)
    got = localtime._expanded_jump_sums(SYM, levels, pre, h, post)
    exact, size = _exact_jump_sum(SYM, pre, post, h, levels[0])
    assert np.all(np.abs(got - exact) <= 1e-14 * size), (got, exact)


def test_two_sum_error_is_exact():
    # a + b - fl(a + b) in rational arithmetic, for pairs that cancel, at
    # magnitudes near 2^+-1000, among subnormals, on ties to even, and at
    # random exponents; _two_difference's pair sums to x - c exactly
    big, tiny, sub = 2.0 ** 1000, 2.0 ** -1000, 5e-324
    pairs = [
        (1.0, -1.0), (1.0, -(1.0 - 2.0 ** -53)), (0.1, 2.0 ** -60 - 0.1),
        (1e16, -1e16 + 2.0), (1.5 * big, big), (big, -big * (1 - 2.0 ** -52)),
        (big, tiny), (big, 1.0), (tiny, 3.0 * tiny), (-tiny, big * 2.0 ** -80),
        (sub, sub), (sub, -2.0 * sub), (1e-310, 3e-310),
        (2.0 ** -1022, -sub), (2.0 ** -1022, 2.0 ** -1074 * 3.0),
        (1.0, 2.0 ** -53), (1.0 + 2.0 ** -52, 2.0 ** -53),
        (-3.0, -2.0 ** -52), (2.0 ** 53, 1.0), (2.0 ** 53 + 2.0, 1.0),
        (0.1, 0.2), (0.0, -0.0), (-0.0, -0.0), (0.0, 7.5)]
    rng = np.random.default_rng(5)
    a, b = (rng.standard_normal((2, 400))
            * 2.0 ** rng.integers(-1000, 1000, (2, 400)))
    a = np.concatenate([[p[0] for p in pairs], a])
    b = np.concatenate([[p[1] for p in pairs], b])
    s = a + b
    err = localtime._two_sum_error(a, b, s)
    diff, diff_err = localtime._two_difference(a, b)
    assert np.array_equal(diff, a - b)
    for ai, bi, si, ei, di, dei in zip(a, b, s, err, diff, diff_err):
        assert Fraction(ei) == Fraction(ai) + Fraction(bi) - Fraction(si), \
            (ai, bi)
        assert Fraction(di) + Fraction(dei) == Fraction(ai) - Fraction(bi), \
            (ai, bi)
    # a tie rounds to even, and the error is the half ulp it dropped
    assert err[pairs.index((1.0, 2.0 ** -53))] == 2.0 ** -53
    assert err[pairs.index((1.0 + 2.0 ** -52, 2.0 ** -53))] == -(2.0 ** -53)


def test_sorted_prefix_sums_keep_ties_in_time_order(monkeypatch):
    # without drift or gaussian noise the path is flat between jumps, so
    # its values tie; the sort of each prefix, the whole path among them,
    # must keep tied points in time order, so the prefix sums do not depend
    # on how a sort implementation breaks ties. numpy's default argsort
    # leaves that order unspecified, so where sorted values tie the value
    # order sorts again stably: the sums are, bit for bit, those of
    # np.argsort(kind="stable")
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=1,
                    small_jump_mode="drop")
    params = derive_params(1.1, 1.0, 1.0)
    path = simulate_path_jumpdecomp(params, cfg)
    x, dt = path.values[:-1], np.diff(path.times)
    assert len(np.unique(x)) < len(x) // 2
    seen, real = [], localtime._sorted_prefix_sums

    def spy(xs, dts, c):
        seen.append((xs.copy(), dts.copy()))
        return real(xs, dts, c)

    monkeypatch.setattr(localtime, "_sorted_prefix_sums", spy)
    table = compensator_table(params, cfg.eps)
    levels, ends = default_a_grid(path), [len(x) // 3, len(x)]
    got = [_sorted_sums(table, levels, x[:end], dt[:end]) for end in ends]
    assert len(seen) == len(ends)
    for end, (xs, dts) in zip(ends, seen):
        order = np.lexsort((np.arange(end), x[:end]))
        assert np.array_equal(_bits(xs), _bits(x[order]))
        assert np.array_equal(_bits(dts), _bits(dt[order]))

    def stable(values):
        order = np.argsort(values, kind="stable")
        return order, values[order]

    monkeypatch.setattr(localtime, "_value_order", stable)
    assert np.array_equal(_bits(got), _bits([
        _sorted_sums(table, levels, x[:end], dt[:end]) for end in ends]))


# ------------------------------------------------------ expanded jump sum

def _jumps(path):
    """The pre-jump values, post-jump values and sizes of a path's jumps."""
    post = path.values[path.jump_rows]
    return post - path.jump_sizes, post, path.jump_sizes


def _exact_jump_sum(params, pre, post, h, a):
    """math.fsum of the jump terms at level a, and their magnitudes' sum.

    A jump that keeps the sign of y = pre - a adds the cancellation-free
    F(y) expm1((alpha - 1) log1p(h / y)); a crossing adds
    F(post - a) - F(pre - a).
    """
    y = pre - a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = h / y
        keeps = (ratio > -1.0) & np.isfinite(ratio)
        kept = kernel_F(params, y) * np.expm1(
            (params.alpha - 1.0) * np.log1p(np.where(keeps, ratio, 0.0)))
    terms = np.where(keeps, kept,
                     kernel_F(params, post - a) - kernel_F(params, y))
    return math.fsum(terms), np.abs(terms).sum()


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("triplet, mode", [
    ((1.1, 1.0, 1.0), "gaussian"), ((1.3, 3.0, 1.0), "gaussian"),
    ((1.5, 1.0, 1.0), "gaussian"), ((1.8, 0.0, 1.0), "gaussian"),
    ((1.8, 1.0, 0.0), "gaussian"), ((1.1, 1.0, 1.0), "drop")],
    ids=["1.1-symmetric", "1.3-skewed", "1.5-symmetric", "1.8-c+=0",
         "1.8-c-=0", "1.1-symmetric-drop"])
def test_expanded_jump_sum_matches_exact_summation(triplet, mode, eps,
                                                  monkeypatch):
    # martingale_part's jump sum, with the compensator stubbed to 0, at 1,
    # 2, 15, 16 and 201 levels: the tiled walk below 16 levels, and from
    # there the binned moments for far bins, both adding the
    # cancellation-free form for the rest. Against a correctly rounded
    # math.fsum of the cancellation-free terms, at levels taken from the 201
    # default ones, it must agree within 1e-14 of the terms' magnitudes, at
    # three starting points. Measured <= 3.7e-16 (1.8 with c+ = 0, eps
    # 1e-3, 16 and 201 levels), <= 2.2e-16 below 16 levels. The direct
    # sum of F(post - a) - F(pre - a) misses by up to 1.7e-13 at x0 = 0
    # (1.1 symmetric, eps 1e-3), and at x0 = 1000, where pre = post - h
    # rounds, by up to 9.4e-12
    params = derive_params(*triplet)
    monkeypatch.setattr(localtime, "_compensator_at",
                        lambda table, x: np.zeros(np.shape(x)))
    monkeypatch.setattr(localtime, "_sorted_sums",
                        lambda table, levels, x, dt: np.zeros(len(levels)))
    for x0 in (0.0, -3.0, 1000.0):
        cfg = SimConfig(T=1.0, n_steps=4096, eps=eps, seed=1,
                        small_jump_mode=mode, x0=x0)
        path = simulate_path_jumpdecomp(params, cfg)
        pre, post, h = _jumps(path)
        levels = default_a_grid(path)
        # every level, or every fourth where fsum over 140k jumps per level
        # would take seconds
        checked = np.arange(0, len(levels), 1 if len(h) < 50_000 else 4)
        exact = {j: _exact_jump_sum(params, pre, post, h, levels[j])
                 for j in checked}
        # n checked levels spread over the grid, then the whole grid
        picks = [checked[np.linspace(0, len(checked) - 1, n).astype(int)]
                 for n in (1, 2, 15, _SORT_LEVELS)]
        for pick in picks + [np.arange(len(levels))]:
            got = martingale_part(params, path, levels[pick])
            for j, total in zip(pick, got):
                if j in exact:
                    value, size = exact[j]
                    assert abs(total - value) <= 1e-14 * size, (x0, j)


def test_expanded_jump_sum_edge_cases():
    # a path whose jumps all exceed the binned size (eps 5e-2 > 0.025)
    # sums every term directly, to the bar of the exact-sum test; and a
    # checkpoint before its first jump has no jumps, so that row is the
    # compensator's alone
    params = LEVEL_CURVE
    path = simulate_path_jumpdecomp(
        params, SimConfig(T=1.0, n_steps=4096, eps=5e-2, seed=3))
    pre, post, h = _jumps(path)
    assert len(h) and np.all(np.abs(h) > localtime._JUMP_SMALL)
    levels = default_a_grid(path)
    t = path.times[1]
    assert path.jump_rows[0] > 1
    m = martingale_part(params, path, levels, checkpoints=[t, 1.0])
    x, dt = path.values[:-1], np.diff(path.times)
    table = compensator_table(params, path.config.eps)
    assert np.array_equal(_bits(m[0]),
                          _bits(-_sorted_sums(table, levels, x[:1], dt[:1])))
    assert np.array_equal(_bits(m[1]),
                          _bits(martingale_part(params, path, levels)))
    got = localtime._expanded_jump_sums(params, levels, pre, h, post)
    for a, total in zip(levels, got):
        exact, size = _exact_jump_sum(params, pre, post, h, a)
        assert abs(total - exact) <= 1e-14 * size, a
    assert np.array_equal(
        localtime._expanded_jump_sums(params, levels, pre[:0], h[:0],
                                      post[:0]), np.zeros(len(levels)))


@pytest.mark.parametrize("gap", [1e8, 1e16])
def test_expanded_jump_sum_holds_across_a_wide_spread(gap):
    # half the jumps moved a gap away: the bins sit up to gap / 2 from the
    # midrange, where pre - c and a - c round by up to 0.5 at 1e16, so
    # offsets are taken exactly and a bin counts as far only by its
    # computed distance (plain differences missed by 7.7e-12 at 1e8 and
    # 5.7e-4 at 1e16 of the terms' magnitudes)
    cfg = SimConfig(T=1.0, n_steps=1024, eps=1e-3, seed=1)
    path = simulate_path_jumpdecomp(SYM, cfg)
    pre, post, h = _jumps(path)
    shift = np.where(np.arange(len(h)) < len(h) // 2, 0.0, gap)
    pre, post = pre + shift, post + shift
    near = np.linspace(path.values.min(), path.values.max(), 8)
    levels = np.concatenate([near, near + gap])
    got = localtime._expanded_jump_sums(SYM, levels, pre, h, post)
    for a, total in zip(levels, got):
        exact, size = _exact_jump_sum(SYM, pre, post, h, a)
        assert abs(total - exact) <= 1e-14 * size, a


def test_runs_longer_than_a_tile_keep_their_bits():
    # 40k grid points within 5e-4 of 0 and 20k jumps of +-1.5e-3: at level
    # 0 the occupation support, the compensator's band and the near jumps
    # are each one run longer than a tile, summed in a tile of its own.
    # Its value must not depend on the levels asked for with it, and must
    # hold the exact-summation bars of the tests above
    n, eps = 40_000, 1e-3
    rng = np.random.default_rng(7)
    values = rng.uniform(-5e-4, 5e-4, n + 1)
    values[0] = 0.0
    rows = np.arange(1, n + 1, 2)
    path = PathSample(
        times=np.linspace(0.0, 1.0, n + 1), values=values, jump_rows=rows,
        jump_sizes=np.where(rows % 4 == 1, 1.5e-3, -1.5e-3),
        scheme="jumpdecomp", config=SimConfig(T=1.0, n_steps=n, eps=eps))
    x, dt = path.values[:-1], np.diff(path.times)
    pre, post, h = _jumps(path)
    moll = default_mollifier(eps)
    table = compensator_table(SYM, eps)
    assert len(x) > localtime._PAIR_TILE and len(h) > localtime._PAIR_TILE
    assert np.abs(x).max() < min(moll.width, localtime._NEAR_EPS * eps)
    assert np.abs(h).max() <= localtime._JUMP_SMALL
    # level 0 first among far levels, and after six long runs
    first = np.concatenate([[0.0], np.linspace(0.5, 2.0, _SORT_LEVELS - 1)])
    after = np.concatenate([[-3e-4, -2e-4, -1e-4, 1e-4, 2e-4, 3e-4, 0.0],
                            np.linspace(-2.0, -0.5, _SORT_LEVELS - 7)])
    got = [(occupation_curve(path, levels, moll)[j],
            _sorted_sums(table, levels, x, dt)[j],
            localtime._expanded_jump_sums(SYM, levels, pre, h, post)[j])
           for levels, j in ((first, 0), (after, 6))]
    assert np.array_equal(_bits(got[0]), _bits(got[1]))
    occ, comp, jump = got[0]
    terms = moll(x) * dt
    assert abs(occ - math.fsum(terms)) <= 1e-14 * math.fsum(terms)
    terms = _compensator_at(table, x) * dt
    assert abs(comp - math.fsum(terms)) <= 1e-14 * np.abs(terms).sum()
    exact, size = _exact_jump_sum(SYM, pre, post, h, 0.0)
    assert abs(jump - exact) <= 1e-14 * size


@pytest.fixture(scope="module")
def curve_path():
    # the level-curve shape
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=2)
    return simulate_path_jumpdecomp(LEVEL_CURVE, cfg)


@pytest.fixture
def sorted_calls(monkeypatch):
    """The (levels, points) of each call of the sorted route."""
    calls, real = [], localtime._sorted_sums

    def spy(table, levels, x, dt):
        calls.append((len(levels), len(x)))
        return real(table, levels, x, dt)

    monkeypatch.setattr(localtime, "_sorted_sums", spy)
    return calls


@pytest.fixture
def expanded_calls(monkeypatch):
    """The (levels, jumps) of each call of the expanded jump sum."""
    calls, real = [], localtime._expanded_jump_sums

    def spy(params, levels, pre, h, post):
        calls.append((len(levels), len(h)))
        return real(params, levels, pre, h, post)

    monkeypatch.setattr(localtime, "_expanded_jump_sums", spy)
    return calls


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_compensator_table_contract(curve_path, sorted_calls,
                                    expanded_calls, monkeypatch):
    # one table per (params, eps), equal params being one key, holding
    # its nodes and values alone, both read-only
    table = compensator_table(SYM, 1e-3)
    assert compensator_table(derive_params(1.5, 1.0, 1.0), 1e-3) is table
    assert compensator_table(SYM, 1e-2) is not table
    assert compensator_table(derive_params(1.5, 3.0, 1.0), 1e-3) is not table
    assert len(table.nodes) == 643 and table.nodes[321] == 0.0
    assert np.flatnonzero(np.isnan(table.node_values)).tolist() == [321]
    arrays = [field for field in table if isinstance(field, np.ndarray)]
    assert len(arrays) == 2
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # each martingale_part call looks the table up once, where callers
    # find it, on the tiled route (2 levels) and the sorted one (201
    # levels, the sorted compensator and the jump sum's expansion once per
    # checkpoint); both routes' values are pinned by digest
    looked_up, real = [], localtime.compensator_table

    def counting(params, eps):
        looked_up.append((params, eps))
        return real(params, eps)

    monkeypatch.setattr(localtime, "compensator_table", counting)
    grid = default_a_grid(curve_path)
    pins = {2: "94b24f258e82fec6", 201: "ec2215df54b3cce2"}
    for levels, n_calls in ((grid[[50, 150]], 0), (grid, 3)):
        looked_up.clear()
        sorted_calls.clear()
        expanded_calls.clear()
        m = martingale_part(LEVEL_CURVE, curve_path, levels,
                            checkpoints=[0.05, 0.5, 1.0])
        assert looked_up == [(LEVEL_CURVE, curve_path.config.eps)]
        assert len(sorted_calls) == len(expanded_calls) == n_calls
        digest = hashlib.sha256(m.astype("<f8").tobytes()).hexdigest()
        assert digest[:16] == pins[len(levels)]


def test_sorted_route_values_do_not_depend_on_other_levels(
        curve_path, sorted_calls, expanded_calls):
    # a level's value from the 201-level default grid is, bit for bit,
    # its value from a shuffled 16-level subset, both its compensator and
    # its expanded jump sum; and each row of a checkpoint array, from one
    # sort and one expansion per checkpoint, is the call at that
    # checkpoint alone
    grid = default_a_grid(curve_path)
    n = len(curve_path.times) - 1
    jumps = len(curve_path.jump_sizes)
    pick = np.random.default_rng(0).permutation(201)[:_SORT_LEVELS]
    full = martingale_part(LEVEL_CURVE, curve_path, grid)
    subset = martingale_part(LEVEL_CURVE, curve_path, grid[pick])
    assert sorted_calls == [(201, n), (_SORT_LEVELS, n)]
    assert expanded_calls == [(201, jumps), (_SORT_LEVELS, jumps)]
    assert np.array_equal(_bits(full[pick]), _bits(subset))
    sorted_calls.clear()
    expanded_calls.clear()
    horizons = [0.05, 0.5, 1.0]
    rows = martingale_part(LEVEL_CURVE, curve_path, grid[pick], horizons)
    assert [levels for levels, _ in sorted_calls] == [_SORT_LEVELS] * 3
    assert sorted_calls[-1] == (_SORT_LEVELS, n)
    assert [levels for levels, _ in expanded_calls] == [_SORT_LEVELS] * 3
    assert expanded_calls[-1] == (_SORT_LEVELS, jumps)
    assert np.array_equal(_bits(rows[-1]), _bits(subset))
    for t, row in zip(horizons, rows):
        assert np.array_equal(
            _bits(row), _bits(martingale_part(LEVEL_CURVE, curve_path,
                                              grid[pick], t)))


def test_route_choice_from_input_sizes(curve_path, sorted_calls,
                                      expanded_calls, monkeypatch):
    # fewer than _SORT_LEVELS levels keep the tiled routes of both sums,
    # whose values are the one-level calls'; 16 levels or more take the
    # sorted route on a path of any length, here ~9 and ~45 points per
    # table cell; a level's value across the two routes moves by rounding
    # only
    grid = default_a_grid(curve_path)
    few = grid[::14][:_SORT_LEVELS - 1]
    assert np.array_equal(
        _bits(martingale_part(LEVEL_CURVE, curve_path, few)),
        _bits([martingale_part(LEVEL_CURVE, curve_path, a) for a in few]))
    assert sorted_calls == [] and expanded_calls == []
    short = simulate_path_jumpdecomp(
        LEVEL_CURVE, SimConfig(T=1.0, n_steps=4096, eps=1e-2, seed=2))
    for path in (short, curve_path):
        grid = default_a_grid(path)
        x, dt = path.values[:-1], np.diff(path.times)
        eps, ends = path.config.eps, [len(x)]
        sorted_calls.clear()
        martingale_part(LEVEL_CURVE, path, grid)
        assert sorted_calls == [(201, len(x))]
        table = compensator_table(LEVEL_CURVE, eps)
        sorted_route = localtime._sorted_sums(table, grid, x, dt)
        assert len(sorted_calls) == 2
        # the tiled route over the same 201 levels, called directly, gives
        # each level the one-level call's float
        g = partial(_compensator_at, table)

        def tile(b, x, dt):
            return g(x - b) * dt

        tiled_route = _tiled_levels(grid, ends, tile, x, dt)
        assert np.array_equal(
            _bits(tiled_route[0, ::25]),
            _bits([_tiled_levels(np.array([a]), ends, tile, x, dt)[0, 0]
                   for a in grid[::25]]))
        assert len(sorted_calls) == 2
        # the routes agree within the bar of the exact-sum test
        for a, s, t in zip(grid, sorted_route, tiled_route[0]):
            assert abs(s - t) <= 1e-14 * np.abs(g(x - a) * dt).sum(), a
    # a level on a post-jump value, where F has its cusp, keeps its M at 1,
    # 15 and 16 levels within 1e-15 of its terms' magnitudes: every route
    # reads that jump at pre + h - a, not at post - a = 0. The jump is one
    # whose pre = post - h rounded most while pre + h stops short of post;
    # F(post - a) - F(pre - a) below 16 levels parted by 1.6e-5. Measured
    # 4.4e-16 (4.5e-17 of the magnitudes)
    path = simulate_path_jumpdecomp(LEVEL_CURVE, SimConfig(
        T=1.0, n_steps=4096, eps=1e-3, seed=3, x0=1000.0))
    pre, post, h = _jumps(path)
    e = localtime._two_difference(post, h)[1]
    on = post[np.argmax(np.where(e * h > 0.0, np.abs(e), 0.0))]
    levels = np.append(on, np.quantile(path.values, np.linspace(
        0.05, 0.95, _SORT_LEVELS - 1)))
    got = [martingale_part(LEVEL_CURVE, path, levels[:n])[0]
           for n in (1, _SORT_LEVELS - 1, _SORT_LEVELS)]
    x, dt = path.values[:-1], np.diff(path.times)
    size = _exact_jump_sum(LEVEL_CURVE, pre, post, h, on)[1] + np.abs(
        _compensator_at(compensator_table(LEVEL_CURVE, 1e-3), x - on)
        * dt).sum()
    assert max(got) - min(got) <= 1e-15 * size, got
    # the jumps that the expansion leaves out of its bins, ~370 of a
    # level-curve path, are one short record: the dense walk takes tiles
    # of 43 levels, and each of the 201 levels gets its one-level walk's
    # float, at an end mid-record and at the end. The expanded sum adds
    # exactly that walk, last
    pre, post, h = _jumps(curve_path)
    rest = ~localtime._jump_bins(LEVEL_CURVE, pre, h)[1]
    ends = [np.count_nonzero(rest) // 3, np.count_nonzero(rest)]
    assert _PAIR_TILE // _TILE_POINTS < _PAIR_TILE // ends[-1] < 201
    grid = default_a_grid(curve_path)
    jumps = pre[rest], h[rest], post[rest]
    walked = localtime._walked_jumps(LEVEL_CURVE, grid, ends, *jumps)
    assert np.array_equal(_bits(walked), _bits(np.column_stack([
        localtime._walked_jumps(LEVEL_CURVE, grid[[j]], ends, *jumps)
        for j in range(len(grid))])))
    full = localtime._expanded_jump_sums(LEVEL_CURVE, grid, pre, h, post)
    monkeypatch.setattr(localtime, "_walked_jumps", lambda _, levels, ends,
                        *jumps: np.zeros((len(ends), len(levels))))
    binned = localtime._expanded_jump_sums(LEVEL_CURVE, grid, pre, h, post)
    assert np.array_equal(_bits(full), _bits(binned + walked[-1]))


def test_few_level_calls_keep_their_bits(curve_path, expanded_calls):
    # below _SORT_LEVELS levels both sums go point by point, the jumps by
    # the cancellation-free terms of the many-level route, so these
    # martingale parts (three checkpoints) and kernel-route curves are
    # pinned by digest, and no expansion runs
    grid = default_a_grid(curve_path)
    pins = {1: ("2d17e35d81b1c3b0", "738fbde270b24a2f"),
            2: ("94b24f258e82fec6", "139246d55164dcae"),
            15: ("2f3fc576a1ce62fe", "738f2dca7586abeb")}
    for levels in (grid[[100]], grid[[50, 150]], grid[::14][:15]):
        m = martingale_part(LEVEL_CURVE, curve_path, levels,
                            checkpoints=[0.05, 0.5, 1.0])
        t = tanaka_curve(LEVEL_CURVE, curve_path, levels)
        assert tuple(hashlib.sha256(v.astype("<f8").tobytes()).hexdigest()
                     [:16] for v in (m, t)) == pins[len(levels)]
    assert expanded_calls == []


@pytest.mark.skipif(sys.platform != "linux",
                    reason="minor-fault counts are read as on Linux")
def test_level_curves_stay_off_the_page_fault_path(sorted_calls,
                                                   expanded_calls):
    # tiles keep every temporary below the allocator's mmap threshold, so
    # the two 201-level curves at the level-curve shape reuse memory
    # instead of faulting in fresh pages; measured ~13 faults here against
    # ~42k for 32-level whole-row blocks. The compensator's sorted route
    # and the occupation sum sort the path into arrays as long as the path,
    # which a repeated call takes back from the allocator: measured 0
    # faults in the suite's run, up to ~850 when this test runs alone. The
    # expanded jump sum bins the jumps into arrays as long as the jump
    # record, freed before its direct sums, and tiles its pairs of levels
    # with bins. The occupation support, the compensator's band and the
    # near bins' jumps are runs, one per level, each summed as one slice;
    # they are packed whole into tiles of 128 KiB, where none here is
    # longer. The jumps left out of the bins are walked densely, every
    # level with every one, in tiles of as many levels as fill 128 KiB
    params = derive_params(1.3, 3.0, 1.0)
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=1)
    path = simulate_path_jumpdecomp(params, cfg)
    moll = default_mollifier(cfg.eps)
    grid = default_a_grid(path)
    tanaka_curve(params, path, grid)
    occupation_curve(path, grid, moll)
    expanded_calls.clear()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tanaka_curve(params, path, grid)
    occupation_curve(path, grid, moll)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert expanded_calls == [(201, len(path.jump_sizes))]
    assert faults < 2000, faults
    # and so does the one walk for three checkpoints at the criterion-5
    # shape
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=1)
    path = simulate_path_jumpdecomp(SYM, cfg)
    martingale_part(SYM, path, [0.0, 0.5], checkpoints=[0.25, 0.5, 1.0])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    martingale_part(SYM, path, [0.0, 0.5], checkpoints=[0.25, 0.5, 1.0])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000, faults
    # and so do the sorted compensator and the expanded jump sum over 16
    # levels at three checkpoints: their levels go in tiles of 128 KiB,
    # and only each prefix's sort, sorted points and sums and binned jumps
    # take arrays as long as the path, taken back
    # call after call (measured 0 faults in the suite's run, ~360-1060
    # when this test runs alone)
    levels = np.linspace(-1.0, 1.0, _SORT_LEVELS)
    martingale_part(SYM, path, levels, checkpoints=[0.25, 0.5, 1.0])
    sorted_calls.clear()
    expanded_calls.clear()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    martingale_part(SYM, path, levels, checkpoints=[0.25, 0.5, 1.0])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert [levels for levels, _ in sorted_calls] == [_SORT_LEVELS] * 3
    assert [levels for levels, _ in expanded_calls] == [_SORT_LEVELS] * 3
    assert faults < 2000, faults


def test_quadrature_blocks_stay_within_the_tile_budget():
    # kernel_convolve's two rules and the windowed generator's image term
    # walk their (points x nodes) blocks in row tiles of _PAIR_TILE pairs,
    # so at criterion 1's grid (2^14 points on [-40, 40], the unit bump's
    # F * phi at (alpha, beta) = (1.5, 0.5)) their traced peaks stay near
    # the grid's own arrays: measured 0.87 MB for the grid, 1.09 MB for
    # 2^14 points all inside the support and 1.23 MB for the windowed
    # generator, against 25.1, 26.8 and 25.1 MB for whole blocks
    params = derive_params(1.5, 1.5, 0.5)
    grid = Grid(40.0, 2 ** 14)
    inside = np.linspace(-0.999, 0.999, 2 ** 14)

    def smoothed(x):
        return kernel_convolve(params, standard_bump, x, radius=1.0)

    for call, cap in ((lambda: smoothed(grid.points), 2 * 2 ** 20),
                      (lambda: smoothed(inside), 2 * 2 ** 20),
                      (lambda: generator_apply_windowed(params, smoothed,
                                                        grid), 3 * 2 ** 20)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap, peak


# ------------------------------------------------------------ Fubini identity

def test_occupation_fubini_identity():
    # int g(a) V^{a,n} da equals int_0^t (g * rho_n)(X_s) ds; the two sides
    # share only the path: level-grid trapezoid vs time-Riemann sum with an
    # independent Gauss-Legendre convolution. Measured rel diff 7.7e-7.
    cfg = SimConfig(T=1.0, n_steps=512, eps=1e-2, seed=42)
    path = simulate_path_jumpdecomp(SYM, cfg, path_index=3)
    moll = MollifierSpec(8)
    g = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)

    agrid = np.linspace(path.values.min() - 1, path.values.max() + 1, 801)
    lhs = float(np.trapezoid(g(agrid) * occupation_curve(path, agrid, moll),
                             agrid))

    nodes, wts = leggauss(64)
    w = moll.width
    lefts, dts = path.values[:-1], np.diff(path.times)
    conv = (g(lefts[:, None] + w * nodes[None, :])
            * moll(w * nodes)[None, :]) @ wts * w
    rhs = float(conv @ dts)
    assert abs(lhs - rhs) < 1e-3 * abs(rhs)


# ------------------------------------------------------- occupation formula

def kernel_route_residual(path, g, a_grid):
    """occupation_formula_check's residual with the kernel-route curve."""
    lhs = float(np.trapezoid(g(a_grid) * tanaka_curve(SYM, path, a_grid),
                             a_grid))
    rhs = float(np.sum(g(path.values[:-1]) * np.diff(path.times)))
    return abs(lhs - rhs) / abs(rhs)


@pytest.fixture(scope="module")
def formula_path():
    cfg = SimConfig(T=1.0, n_steps=512, eps=1e-2, seed=42)
    return simulate_path_jumpdecomp(SYM, cfg, path_index=3)


def test_formula_zero_function(formula_path):
    moll = default_mollifier(1e-2)
    (res,) = occupation_formula_check(
        formula_path, [lambda x: np.zeros_like(np.asarray(x, float))],
        default_a_grid(formula_path), moll)
    assert res == 0.0


def test_formula_recovers_total_time(formula_path):
    # integrating the curve against 1 must give back the horizon t;
    # measured residual 8.1e-4
    moll = default_mollifier(1e-2)
    (res,) = occupation_formula_check(
        formula_path, [lambda x: np.ones_like(np.asarray(x, float))],
        default_a_grid(formula_path), moll)
    assert res < 0.02


def test_formula_hat_both_estimators(formula_path):
    # measured: 3.1e-3 through the occupation curve, 4.4e-3 through the
    # kernel route
    moll = default_mollifier(1e-2)
    g = hat_function(float(np.median(formula_path.values)), 1.0)
    grid = default_a_grid(formula_path)
    assert occupation_formula_check(formula_path, [g], grid, moll)[0] < 0.05
    assert kernel_route_residual(formula_path, g, grid) < 0.05


def test_formula_hat_default_refinement():
    # same desk check at the default jump cutoff (eps=1e-3, n_steps=4096);
    # measured: 2.2e-3 occupation, 1.7e-2 kernel route.  Medians over many
    # paths sit near 0.1% / 7% respectively -- the kernel route carries the
    # per-level MC noise that the agreement schedule budgets for, so only
    # a loose per-path bar is meaningful for it.
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=42)
    path = simulate_path_jumpdecomp(SYM, cfg, path_index=3)
    moll = default_mollifier(cfg.eps)
    g = hat_function(float(np.median(path.values)), 1.0)
    grid = default_a_grid(path)
    assert occupation_formula_check(path, [g], grid, moll)[0] < 0.05
    assert kernel_route_residual(path, g, grid) < 0.05


def test_formula_residuals_share_one_curve(formula_path):
    # each function's residual is the one it gets alone, bit for bit
    moll = default_mollifier(1e-2)
    grid = default_a_grid(formula_path)
    gs = [hat_function(0.0, 1.0), hat_function(0.3, 0.5),
          lambda x: np.ones_like(np.asarray(x, float))]
    together = occupation_formula_check(formula_path, gs, grid, moll)
    alone = [occupation_formula_check(formula_path, [g], grid, moll)[0]
             for g in gs]
    assert together.tolist() == alone


def test_formula_input_validation(formula_path):
    moll = default_mollifier(1e-2)
    g = hat_function(0.0, 1.0)
    narrow = np.linspace(-0.5, 0.5, 51)
    with pytest.raises(ValueError, match="margin"):
        occupation_formula_check(formula_path, [g], narrow, moll)
    with pytest.raises(ValueError, match="increasing"):
        occupation_formula_check(formula_path, [g], np.array([1.0, 0.0]),
                                 moll)


# ----------------------------------------------------------------- symmetries

def test_shift_relabeling():
    # (path, a) -> (path + c, a + c) leaves both estimators unchanged up to
    # the float rounding of the shifted inputs themselves
    cfg = SimConfig(T=1.0, n_steps=256, eps=1e-2, seed=13)
    path = simulate_path_jumpdecomp(SYM, cfg, path_index=1)
    c = 2.0
    shifted = PathSample(
        times=path.times, values=path.values + c, jump_rows=path.jump_rows,
        jump_sizes=path.jump_sizes, scheme=path.scheme, config=replace(cfg, x0=cfg.x0 + c))
    moll = default_mollifier(cfg.eps)
    levels = np.array([-0.3, 0.0, 0.8])
    np.testing.assert_allclose(occupation_curve(shifted, levels + c, moll),
                               occupation_curve(path, levels, moll),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(tanaka_curve(SYM, shifted, levels + c),
                               tanaka_curve(SYM, path, levels),
                               rtol=1e-10, atol=1e-12)


def test_reflection_symmetry_when_symmetric():
    # for c+ = c- the reflected path is equally likely and the kernel is
    # even, so estimates must match pathwise (up to rounding). Reflection
    # reverses the value order in which each level's occupation terms are
    # summed, so those agree to rounding, not bit for bit: measured
    # 1.9e-16 relative here, <= 6.6e-16 over the default grids of 10 seeds
    cfg = SimConfig(T=1.0, n_steps=256, eps=1e-2, seed=17)
    path = simulate_path_jumpdecomp(SYM, cfg, path_index=4)
    reflected = PathSample(
        times=path.times, values=-path.values, jump_rows=path.jump_rows,
        jump_sizes=-path.jump_sizes, scheme=path.scheme, config=replace(cfg, x0=-cfg.x0))
    moll = default_mollifier(cfg.eps)
    levels = np.array([-0.4, 0.0, 0.6])
    np.testing.assert_allclose(occupation_curve(reflected, -levels, moll),
                               occupation_curve(path, levels, moll),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(tanaka_curve(SYM, reflected, -levels),
                               tanaka_curve(SYM, path, levels),
                               rtol=1e-6, atol=1e-8)


# ------------------------------------------------------------- MC properties

def test_martingale_mean_zero_at_checkpoints():
    # 400 paths, default (drop) mode; measured |z| <= 1.0 over all six
    # level/horizon combinations at this seed
    cfg = SimConfig(T=1.0, n_steps=512, eps=1e-2, seed=314)
    rows = {(a, t): [] for a in (0.0, 0.5) for t in (0.25, 0.5, 1.0)}
    for i in range(400):
        p = simulate_path_jumpdecomp(SYM, cfg, path_index=i)
        for (a, t), acc in rows.items():
            acc.append(martingale_part(SYM, p, a, checkpoints=t))
    for (a, t), acc in rows.items():
        arr = np.asarray(acc)
        stderr = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean()) <= 4.0 * stderr, (a, t, arr.mean(), stderr)


def test_martingale_square_within_quadrature_bound():
    # measured E[M^2] = 0.16 against a bound of 11.9 -- the growth-bound
    # route is loose but must hold
    cfg = SimConfig(T=1.0, n_steps=512, eps=1e-2, seed=77)
    sq = [martingale_part(SYM, simulate_path_jumpdecomp(SYM, cfg, i),
                          0.0) ** 2 for i in range(300)]
    bound = martingale_l2_bound(SYM, 1.0)
    assert math.isfinite(bound) and bound > 0.0
    assert 0.01 < float(np.mean(sq)) <= 2.0 * bound


@pytest.mark.parametrize("point, expected", [
    ((1.3, 3.0, 1.0, 0.5, None), 6.771485095367224),
    ((1.8, 0.0, 1.0, 2.0, 0.05), 11.445478688059922),
])
def test_martingale_l2_bound_matches_quadrature(point, expected):
    # (alpha, c+, c-, t, eps0); values recorded from the former quadrature
    # of the near-field term over s
    alpha, c_plus, c_minus, t, eps0 = point
    bound = martingale_l2_bound(derive_params(alpha, c_plus, c_minus), t,
                                eps0)
    assert bound == pytest.approx(expected, rel=1e-12)


def test_martingale_l2_bound_refuses_infinite_time():
    # the near-field bound is 0 there, and 0 * inf would give NaN
    with pytest.raises(ValueError, match="finite"):
        martingale_l2_bound(SYM, math.inf)


def test_martingale_l2_bound_validates_eps0():
    with pytest.raises(ValueError, match="eps0"):
        martingale_l2_bound(SYM, 1.0, eps0=0.9)
    # shrinking the exponent knob moves the bound; both must stay finite
    b1 = martingale_l2_bound(SYM, 1.0, eps0=0.1)
    b2 = martingale_l2_bound(SYM, 1.0, eps0=0.4)
    assert math.isfinite(b1) and math.isfinite(b2) and b1 != b2


def test_agreement_mse_decreases_under_refinement():
    # doubling schedule in (n, 1/eps, n_steps); measured MSE sequence
    # 0.0415 / 0.0343 / 0.0298 at this seed, strictly decreasing
    mses = []
    for eps, n_steps in [(4e-2, 128), (2e-2, 256), (1e-2, 512)]:
        cfg = SimConfig(T=1.0, n_steps=n_steps, eps=eps, seed=1234)
        moll = default_mollifier(eps)
        diffs = []
        for i in range(200):
            p = simulate_path_jumpdecomp(SYM, cfg, path_index=i)
            diffs.append(tanaka_curve(SYM, p, [0.0])[0]
                         - occupation_curve(p, [0.0], moll)[0])
        mses.append(float(np.mean(np.square(diffs))))
    assert mses[0] > mses[1] > mses[2], mses


def test_tanaka_rarely_undershoots():
    # local times are nonnegative; the kernel estimator may dip below zero
    # only rarely and shallowly. Measured: 0.33% of 600 paths fall under
    # -0.05 x (sample mean) at this refinement.
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=99)
    vals = np.array([
        tanaka_curve(SYM, simulate_path_jumpdecomp(SYM, cfg, i), [0.0])[0]
        for i in range(600)])
    assert vals.mean() > 0.0
    frac = float(np.mean(vals < -0.05 * vals.mean()))
    assert frac < 0.015, frac
