"""Local-time curve tests.

Deterministic collapses (constant paths), the Fubini identity behind the
occupation estimator, relabeling/reflection symmetries, and reduced-scale
Monte Carlo versions of the martingale-mean and estimator-agreement
properties. MC assertions run on frozen seeds with margins measured at
calibration time; each records its measured value next to the bound.
"""

import math
import resource
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from stable_tanaka import derive_params
from stable_tanaka.kernel import MollifierSpec, compensator_density, kernel_F
from stable_tanaka.localtime import (
    _TILE_LEVELS,
    _TILE_POINTS,
    _compensator_interp,
    _compensator_nodes,
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


@pytest.mark.parametrize("params", [SYM, derive_params(1.5, 1.0, 0.0)],
                         ids=["symmetric", "one-sided"])
@pytest.mark.parametrize("t", [None, 0.5, "checkpoints"])
def test_martingale_levels_array_matches_scalar_calls(params, t):
    # 2 * levels-per-tile + 3 levels cross two tile edges, and up to t the
    # path has more than one point chunk of grid points and of jumps; each
    # level's value must not depend on the levels that share its tile, and
    # each row of a checkpoint array must be the call at that checkpoint
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
    levels = np.linspace(path.values.min() - 0.5, path.values.max() + 0.5,
                         2 * _TILE_LEVELS + 3)
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
    # agree with a correctly rounded math.fsum of the same terms within
    # 1e-12 of the sum of their magnitudes
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=8)
    path = simulate_path_jumpdecomp(params, cfg, path_index=2)
    moll = default_mollifier(cfg.eps)
    lefts, dts = path.values[:-1], np.diff(path.times)
    # the rows are checked against an independent search of the grid
    rows = np.searchsorted(path.times, path.jump_times)
    assert np.array_equal(rows, path.jump_rows)
    post = path.values[rows]
    pre = post - path.jump_sizes
    g = _compensator_interp(params, cfg.eps)
    levels = np.concatenate([np.quantile(path.values, [0.1, 0.5, 0.9]),
                             [path.values.max() + 0.5]])
    occ = occupation_curve(path, levels, moll)
    mart = martingale_part(params, path, levels)
    for j, a in enumerate(levels):
        terms = moll(lefts - a) * dts
        assert abs(occ[j] - math.fsum(terms)) \
            <= 1e-12 * np.abs(terms).sum(), a
        terms = np.concatenate([kernel_F(params, post - a)
                                - kernel_F(params, pre - a),
                                -(g(lefts - a) * dts)])
        assert abs(mart[j] - math.fsum(terms)) \
            <= 1e-12 * np.abs(terms).sum(), a


def _dense_occupation(path, levels, moll):
    # every level adds, chunk by chunk, the row sum of moll(x - a) * dt
    # over every point of the chunk
    x, dt = path.values[:-1], np.diff(path.times)
    out = []
    for a in levels:
        total = 0.0
        for lo in range(0, len(x), _TILE_POINTS):
            total += (moll(x[lo:lo + _TILE_POINTS] - a)
                      * dt[lo:lo + _TILE_POINTS]).sum()
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("n", [None, 1], ids=["default", "n=1"])
def test_occupation_support_walk_matches_dense_rows(n):
    # only the points within 2/n of a level are evaluated, but each chunk's
    # row is the dense row, so every level keeps its bits: over unsorted
    # and repeated levels, a path of more than one chunk, and levels past
    # the path's range, which must give exactly 0.0
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
    # a path of one short chunk, visited at one level only
    path = constant_path(0.7)
    levels = np.array([0.7, 3.0, 0.7 + moll.width / 2, 0.7])
    got = occupation_curve(path, levels, moll)
    assert np.array_equal(got.view(np.int64),
                          _dense_occupation(path, levels, moll).view(np.int64))
    assert got[1] == 0.0 and got[0] == got[3] > 0.0


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
    got = _compensator_interp(params, eps)(x)
    assert np.array_equal(got.view(np.int64),
                          chord_then_cusp(x).view(np.int64))


def test_compensator_nodes_cached_and_read_only():
    # one table per (params, eps): equal params are one key
    nodes, values = _compensator_nodes(SYM, 1e-3)
    again = _compensator_nodes(derive_params(1.5, 1.0, 1.0), 1e-3)
    assert again[0] is nodes and again[1] is values
    assert _compensator_nodes(SYM, 1e-2)[0] is not nodes
    assert _compensator_nodes(derive_params(1.5, 3.0, 1.0), 1e-3)[1] \
        is not values
    assert len(nodes) == 643 and nodes[321] == 0.0
    assert np.flatnonzero(np.isnan(values)).tolist() == [321]
    for table in (nodes, values):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


@pytest.mark.skipif(sys.platform != "linux",
                    reason="minor-fault counts are read as on Linux")
def test_level_curves_stay_off_the_page_fault_path():
    # tiles keep every temporary below the allocator's mmap threshold, so
    # the two 201-level curves at the level-curve shape reuse memory
    # instead of faulting in fresh pages; measured ~13 faults here against
    # ~42k for 32-level whole-row blocks
    params = derive_params(1.3, 3.0, 1.0)
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=1)
    path = simulate_path_jumpdecomp(params, cfg)
    moll = default_mollifier(cfg.eps)
    grid = default_a_grid(path)
    tanaka_curve(params, path, grid)
    occupation_curve(path, grid, moll)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tanaka_curve(params, path, grid)
    occupation_curve(path, grid, moll)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
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
    res = occupation_formula_check(
        formula_path, lambda x: np.zeros_like(np.asarray(x, float)),
        default_a_grid(formula_path), moll)
    assert res == 0.0


def test_formula_recovers_total_time(formula_path):
    # integrating the curve against 1 must give back the horizon t;
    # measured residual 8.1e-4
    moll = default_mollifier(1e-2)
    res = occupation_formula_check(
        formula_path, lambda x: np.ones_like(np.asarray(x, float)),
        default_a_grid(formula_path), moll)
    assert res < 0.02


def test_formula_hat_both_estimators(formula_path):
    # measured: 3.1e-3 through the occupation curve, 4.4e-3 through the
    # kernel route
    moll = default_mollifier(1e-2)
    g = hat_function(float(np.median(formula_path.values)), 1.0)
    grid = default_a_grid(formula_path)
    assert occupation_formula_check(formula_path, g, grid, moll) < 0.05
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
    assert occupation_formula_check(path, g, grid, moll) < 0.05
    assert kernel_route_residual(path, g, grid) < 0.05


def test_formula_input_validation(formula_path):
    moll = default_mollifier(1e-2)
    g = hat_function(0.0, 1.0)
    narrow = np.linspace(-0.5, 0.5, 51)
    with pytest.raises(ValueError, match="margin"):
        occupation_formula_check(formula_path, g, narrow, moll)
    with pytest.raises(ValueError, match="increasing"):
        occupation_formula_check(formula_path, g, np.array([1.0, 0.0]), moll)


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
    # even, so estimates must match pathwise (up to rounding)
    cfg = SimConfig(T=1.0, n_steps=256, eps=1e-2, seed=17)
    path = simulate_path_jumpdecomp(SYM, cfg, path_index=4)
    reflected = PathSample(
        times=path.times, values=-path.values, jump_rows=path.jump_rows,
        jump_sizes=-path.jump_sizes, scheme=path.scheme, config=replace(cfg, x0=-cfg.x0))
    moll = default_mollifier(cfg.eps)
    levels = np.array([-0.4, 0.0, 0.6])
    assert np.array_equal(occupation_curve(reflected, -levels, moll),
                          occupation_curve(path, levels, moll))
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
