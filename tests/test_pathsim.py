"""Sampler-law, path-scheme, and bookkeeping tests.

Law checks compare Monte Carlo statistics against the closed-form
characteristic function exp(t eta(u)) or against an independent scheme via
two-sample Kolmogorov-Smirnov. Seeds are fixed; the z-scores and p-values
asserted here were checked to hold with wide margin across neighboring seeds.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stable_tanaka.cli import main
from stable_tanaka.params import (
    derive_params,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
)
from stable_tanaka import pathsim
from stable_tanaka.pathsim import (
    CharFunctionEstimate,
    PathSample,
    SimConfig,
    empirical_char_function,
    path_rng,
    sample_stable_increment,
    sample_terminal_jumpdecomp,
    simulate_path_jumpdecomp,
    simulate_path_marginal,
)
from stable_tanaka.spectral import char_function

SYM = derive_params(1.5, 1.0, 1.0)
SKEW = derive_params(1.5, 3.0, 1.0)


# ------------------------------------------------------------------ config

@pytest.mark.parametrize("kwargs", [
    dict(T=0.0, n_steps=8),
    dict(T=-1.0, n_steps=8),
    dict(T=8.0, n_steps=8),            # step not below 1
    dict(T=1.0, n_steps=0),
    dict(T=1.0, n_steps=8, eps=1.0),
    dict(T=1.0, n_steps=8, eps=0.0),
    dict(T=1.0, n_steps=8, small_jump_mode="exact"),
    dict(T=1.0, n_steps=8, seed=-1),
    # subnormal horizons whose uniform grid rounds nodes together: 21 of
    # 65, 2025 of 4097 and 2 of 9 distinct
    dict(T=1e-322, n_steps=64),
    dict(T=1e-320, n_steps=4096),
    dict(T=5e-324, n_steps=8),
])
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_config_defaults():
    cfg = SimConfig(T=1.0, n_steps=16)
    assert cfg.eps == 1e-3
    assert cfg.small_jump_mode == "gaussian"
    assert cfg.dt == pytest.approx(1.0 / 16.0)


def test_path_sample_validation():
    # times that repeat, fall or are NaN are not strictly increasing
    for times in ([0.0, 0.5, 0.5], [0.0, 0.5, 0.25], [0.0, math.nan, 1.0],
                  [0.0, 0.5, math.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PathSample(times=np.array(times), values=np.zeros(3),
                       jump_rows=[], jump_sizes=[], scheme="marginal")
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.0, 0.5]), values=np.zeros(3),
                   jump_rows=[], jump_sizes=[], scheme="marginal")
    with pytest.raises(ValueError, match="non-finite"):
        PathSample(times=np.array([0.0, 0.5]),
                   values=np.array([0.0, math.nan]), jump_rows=[],
                   jump_sizes=[], scheme="marginal")
    cfg = SimConfig(T=1.0, n_steps=4, x0=2.0)
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]),
                   jump_rows=[], jump_sizes=[], scheme="marginal",
                   config=cfg)

    # a jump happens at a grid row, so one between grid points (say at
    # t = 0.3 on this grid) cannot be written down
    times, values = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.2])
    good = PathSample(times=times, values=values, jump_rows=[1, 2, 2],
                      jump_sizes=[0.9, 0.1, -0.2], scheme="jumpdecomp")
    assert np.array_equal(good.jump_times, [0.5, 1.0, 1.0])
    assert np.array_equal(good.jumps, [[0.5, 0.9], [1.0, 0.1], [1.0, -0.2]])
    for rows, sizes, what in (
            ([0], [0.9], "jump_rows"),                # before the first step
            ([3], [0.9], "jump_rows"),                # past the last row
            ([2, 1], [0.9, 0.1], "jump_rows"),        # decreasing
            ([1.0], [0.9], "integers"),               # refused, not truncated
            ([1.5], [0.9], "integers"),
            ([1, 2], [0.9], "matching"),              # length mismatch
            ([[1, 2]], [[0.9, 0.1]], "matching"),     # not 1-D
            ([1], [math.nan], "finite"),
            ([2], [math.inf], "finite")):
        with pytest.raises(ValueError, match=what):
            PathSample(times=times, values=values, jump_rows=rows,
                       jump_sizes=sizes, scheme="jumpdecomp")
    # a recorded jump of the jump-decomposition scheme exceeds its cutoff
    with pytest.raises(ValueError, match="exceed the cutoff"):
        PathSample(times=times, values=values, jump_rows=[1, 2],
                   jump_sizes=[0.9, 0.1], scheme="jumpdecomp",
                   config=SimConfig(T=1.0, n_steps=2, eps=0.5))


@pytest.mark.parametrize("call", [
    # a float or a bool would be cast onto the key 1, path 1's stream
    lambda: simulate_path_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8), 1.5),
    lambda: simulate_path_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8),
                                     path_index=True),
    lambda: SimConfig(T=1.0, n_steps=8, seed=True),
    lambda: SimConfig(T=1.0, n_steps=8, seed=np.True_),
    lambda: path_rng(1.0, 0),
    # outside a uint64 key
    lambda: path_rng(0, -1),
    lambda: path_rng(0, 2**64),
    lambda: path_rng(2**64, 0),
    # the third path's key would be 2^64: refused before any draw
    lambda: sample_terminal_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8), 3,
                                       stream_offset=2**64 - 2),
    lambda: sample_terminal_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8), 3,
                                       stream_offset=-1),
    lambda: sample_terminal_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8), 3,
                                       stream_offset=True),
], ids=["float-index", "bool-index", "bool-seed", "numpy-bool-seed",
        "float-seed", "negative-index", "index-2^64", "seed-2^64",
        "offset-past-2^64", "negative-offset", "bool-offset"])
def test_stream_keys_refuse_what_they_cannot_key(call):
    with pytest.raises(ValueError, match=r"2\*\*64"):
        call()


def test_stream_keys_at_their_limits_keep_their_streams():
    # the largest keys are valid, numpy integers key as ints do, and the
    # last stream index a terminal sample may use is 2^64 - 1
    top = 2**64 - 1
    want = np.random.Generator(np.random.Philox(
        key=np.array([top, top], dtype=np.uint64))).random(3)
    assert np.array_equal(path_rng(top, top).random(3), want)
    assert np.array_equal(path_rng(np.uint64(top), np.uint64(top)).random(3),
                          want)
    assert np.array_equal(path_rng(np.int64(5), np.int32(1)).random(3),
                          path_rng(5, 1).random(3))
    cfg = SimConfig(T=1.0, n_steps=8, seed=np.uint64(top))
    assert np.array_equal(
        sample_terminal_jumpdecomp(SYM, cfg, 2, stream_offset=top - 1),
        sample_terminal_jumpdecomp(SYM, replace(cfg, seed=top), 2,
                                   stream_offset=np.uint64(top - 1)))
    assert sample_terminal_jumpdecomp(SYM, cfg, 0, stream_offset=top).size == 0


@pytest.mark.parametrize("call,name", [
    # True would count one step or one path, 2.5 fail midway in numpy
    (lambda: SimConfig(T=0.5, n_steps=True), "n_steps"),
    (lambda: sample_terminal_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8),
                                        2.5), "n_paths"),
    (lambda: sample_terminal_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8),
                                        -1), "n_paths"),
    (lambda: sample_terminal_jumpdecomp(SYM, SimConfig(T=1.0, n_steps=8),
                                        True), "n_paths"),
], ids=["bool-steps", "float-paths", "negative-paths", "bool-paths"])
def test_counts_refuse_what_stream_keys_refuse(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_numpy_integer_counts_keep_their_values():
    cfg = SimConfig(T=1.0, n_steps=8, eps=0.1, seed=3)
    path = simulate_path_jumpdecomp(SYM, cfg)
    same = simulate_path_jumpdecomp(SYM, replace(cfg, n_steps=np.int64(8)))
    assert np.array_equal(same.times, path.times)
    assert np.array_equal(same.values, path.values)
    assert np.array_equal(sample_terminal_jumpdecomp(SYM, cfg, np.int32(3)),
                          sample_terminal_jumpdecomp(SYM, cfg, 3))


def test_rng_streams_keyed_by_path():
    a = path_rng(5, 0).standard_normal(4)
    b = path_rng(5, 1).standard_normal(4)
    c = path_rng(5, 0).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


# ----------------------------------------------------------------- sampler

def test_increment_rejects_bad_dt():
    with pytest.raises(ValueError):
        sample_stable_increment(SYM, 0.0, path_rng(0), size=1)


def test_increment_batch():
    batch = sample_stable_increment(SYM, 0.5, path_rng(1, 0), size=3)
    assert batch.shape == (3,)
    again = sample_stable_increment(SYM, 0.5, path_rng(1, 0), 3)
    assert np.array_equal(batch, again)
    # a batch of one is an array too
    assert sample_stable_increment(SYM, 0.5, path_rng(1, 0), 1).shape == (1,)


@pytest.mark.parametrize("params", [
    SYM, SKEW, derive_params(1.3, 1.0, 0.0), derive_params(1.8, 0.0, 1.0),
])
def test_increment_matches_char_function(params):
    draws = sample_stable_increment(params, 1.0, path_rng(11, 0), size=100_000)
    for u in (0.5, 1.0, 2.0):
        est = empirical_char_function(draws, u)
        target = complex(char_function(params, np.array([u]), 1.0)[0])
        assert abs(est.value.real - target.real) <= 4.0 * est.stderr_real
        assert abs(est.value.imag - target.imag) <= 4.0 * est.stderr_imag


@pytest.mark.parametrize("params", [SYM, SKEW, derive_params(1.8, 1.0, 2.0)])
def test_increment_zero_mean(params):
    # the mean is exactly zero in law; with infinite variance the
    # mean/stderr ratio is only asymptotically controlled, so this runs on
    # parameter sets where the ratio statistic is well-behaved
    draws = sample_stable_increment(params, 1.0, path_rng(11, 0), size=100_000)
    stderr = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean()) <= 4.0 * stderr


def test_increment_self_similar_scaling():
    a1 = sample_stable_increment(SKEW, 2.0, path_rng(3, 0), size=10_000)
    a2 = 2.0 ** (1.0 / 1.5) * sample_stable_increment(
        SKEW, 1.0, path_rng(3, 1), size=10_000)
    assert stats.ks_2samp(a1, a2).pvalue > 0.001


# ------------------------------------------------------------ marginal path

def test_marginal_path_structure():
    cfg = SimConfig(T=2.0, n_steps=32, seed=9, x0=1.5)
    path = simulate_path_marginal(SYM, cfg)
    assert path.scheme == "marginal"
    assert len(path.jumps) == 0
    assert np.allclose(path.times, np.linspace(0.0, 2.0, 33))
    assert path.values[0] == 1.5
    assert path.values.shape == (33,)


def test_marginal_path_deterministic_and_shifts():
    cfg0 = SimConfig(T=1.0, n_steps=64, seed=21)
    again = SimConfig(T=1.0, n_steps=64, seed=21)
    p1 = simulate_path_marginal(SYM, cfg0)
    p2 = simulate_path_marginal(SYM, again)
    assert np.array_equal(p1.values, p2.values)
    shifted = simulate_path_marginal(SYM, SimConfig(T=1.0, n_steps=64,
                                                    seed=21, x0=3.0))
    assert np.allclose(shifted.values, p1.values + 3.0, atol=1e-12)


def test_marginal_terminal_law_matches_single_draw():
    cfg = SimConfig(T=1.0, n_steps=32, seed=13)
    terminals = np.array([simulate_path_marginal(SYM, cfg, i).values[-1]
                          for i in range(4000)])
    singles = sample_stable_increment(SYM, 1.0, path_rng(99, 0), size=4000)
    assert stats.ks_2samp(terminals, singles).pvalue > 0.001


def test_increment_stationarity_across_windows():
    cfg = SimConfig(T=1.0, n_steps=16, seed=31)
    values = np.array([simulate_path_marginal(SYM, cfg, i).values
                       for i in range(2000)])
    early = values[:, 4] - values[:, 0]      # window [0, 1/4]
    late = values[:, 12] - values[:, 8]      # window [1/2, 3/4]
    assert stats.ks_2samp(early, late).pvalue > 0.001


# ------------------------------------------------------- jump decomposition

def test_jumpdecomp_records_and_refines():
    cfg = SimConfig(T=1.0, n_steps=32, eps=5e-2, small_jump_mode="drop",
                    seed=5)
    path = simulate_path_jumpdecomp(SKEW, cfg, 3)
    assert path.scheme == "jumpdecomp"
    assert len(path.jumps) > 0
    assert np.all(np.abs(path.jump_sizes) > cfg.eps)
    # every jump instant is a grid point, so pre-jump values are exact
    assert np.all(np.isin(path.jump_times, path.times))
    # uniform grid survives the refinement
    assert np.all(np.isin(np.linspace(0, 1, 33), path.times))


def test_jumpdecomp_bookkeeping_exact_in_drop_mode():
    cfg = SimConfig(T=1.0, n_steps=32, eps=5e-2, small_jump_mode="drop",
                    seed=5, x0=0.7)
    path = simulate_path_jumpdecomp(SKEW, cfg, 3)
    drift = -nu_tail_mean(SKEW, cfg.eps)
    recon = cfg.x0 + path.jump_sizes.sum() + drift * cfg.T
    assert path.values[-1] == pytest.approx(recon, abs=1e-12)
    k = np.searchsorted(path.times, path.jump_times)
    dv = path.values[k] - path.values[k - 1]
    dt = path.times[k] - path.times[k - 1]
    assert np.allclose(dv, path.jump_sizes + drift * dt, atol=1e-12)


def test_jumpdecomp_one_sided_jumps():
    up_only = derive_params(1.5, 1.0, 0.0)   # beta = 1, no negative mass
    cfg = SimConfig(T=1.0, n_steps=16, eps=2e-2, small_jump_mode="drop",
                    seed=17)
    for i in range(5):
        path = simulate_path_jumpdecomp(up_only, cfg, i)
        assert np.all(path.jump_sizes > 0.0)


def test_jumpdecomp_expected_jump_count():
    cfg = SimConfig(T=1.0, n_steps=16, eps=0.1, seed=23)
    lam = nu_tail_mass(SKEW, cfg.eps) * cfg.T
    counts = np.array([len(simulate_path_jumpdecomp(SKEW, cfg, i).jumps)
                       for i in range(2000)])
    stderr = np.sqrt(lam / counts.size)
    assert abs(counts.mean() - lam) <= 4.0 * stderr


def test_jumpdecomp_deterministic():
    cfg = SimConfig(T=1.0, n_steps=16, eps=1e-2, seed=29)
    p1 = simulate_path_jumpdecomp(SKEW, cfg, 7)
    p2 = simulate_path_jumpdecomp(SKEW, cfg, 7)
    assert np.array_equal(p1.times, p2.times)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.jumps, p2.jumps)


def _union_rows(base, jt):
    # the reference placement: a set union, then a search per instant
    times = np.union1d(base, jt)
    return times, np.searchsorted(times, jt)


def _assert_placed_like_union(base, jt):
    times, rows, steps = pathsim._merge_jump_times(
        base, np.asarray(jt, dtype=float))
    ref_times, ref_rows = _union_rows(base, jt)
    assert times.tobytes() == ref_times.tobytes()
    assert rows.dtype == np.intp and np.array_equal(rows, ref_rows)
    assert steps.tobytes() == np.diff(ref_times).tobytes()
    return times, rows


QUARTERS = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("jt, times, rows", [
    ([], QUARTERS, []),                                  # no jumps
    ([0.5], QUARTERS, [2]),                              # on a node
    ([0.3, 0.3], [0, .25, .3, .5, .75, 1], [2, 2]),       # repeated instant
    ([0.5, 0.5, 0.6], [0, .25, .5, .6, .75, 1], [2, 2, 3]),
    ([0.1, 0.9], [0, .1, .25, .5, .75, .9, 1], [1, 5]),  # first, last cell
    ([1.0], QUARTERS, [4]),                              # on the last node
], ids=["none", "on-node", "repeated", "repeated-on-node", "first-last",
        "at-horizon"])
def test_merge_jump_times_hand_built(jt, times, rows):
    got_times, got_rows = _assert_placed_like_union(QUARTERS, jt)
    assert got_times.tolist() == list(times)
    assert got_rows.tolist() == rows


@pytest.mark.filterwarnings("error:::stable_tanaka")
@pytest.mark.parametrize("n_steps", [8, 4096])
def test_tiny_horizon_merges_without_overflow(n_steps):
    # n / T overflows once T is below about n * 5.6e-309; the cell guess
    # jt / T * n stays within [0, n], and no warning is raised
    T = 1e-310
    cfg = SimConfig(T=T, n_steps=n_steps, eps=1e-2, seed=5)
    path = simulate_path_jumpdecomp(SKEW, cfg)
    assert path.times[-1] == T and len(path.times) >= n_steps + 1
    base = np.linspace(0.0, T, n_steps + 1)
    jt = T * np.random.default_rng(5).random(50)
    _assert_placed_like_union(base, np.sort(np.concatenate([jt, base[3:5],
                                                            [T]])))


@st.composite
def _grid_and_instants(draw):
    n_steps = draw(st.sampled_from([1, 3, 7, 4096, 10**6]))
    T = draw(st.sampled_from([1.0, 0.7, 3.3, 4.35]))
    base = np.linspace(0.0, T, n_steps + 1)
    ties = draw(st.booleans())

    def near_node(node_ulps):
        # a node moved by a few ulps: int(jt n / T) may land in the next cell
        node, ulps = node_ulps
        x = base[node]
        for _ in range(abs(ulps)):
            x = np.nextafter(x, math.copysign(math.inf, ulps))
        return float(min(max(x, 0.0), T))

    ulps = st.integers(-2, 2) if ties else st.sampled_from([-2, -1, 1, 2])
    instant = st.one_of(
        st.tuples(st.integers(0, n_steps), ulps).map(near_node),
        st.floats(0.0, 1.0, exclude_max=True).map(lambda u: T * u))
    jt = draw(st.lists(instant, max_size=40))
    if jt and ties:
        jt += draw(st.lists(st.sampled_from(jt), max_size=3))  # repeats
    return base, np.sort(np.asarray(jt, dtype=float))


@pytest.mark.parametrize("n_steps", [1, 3, 7, 4096])
@pytest.mark.parametrize("T", [1.0, 0.7, 3.3, 4.35])
@pytest.mark.parametrize("ties", [False, True])
def test_merge_jump_times_every_node_nudged(n_steps, T, ties):
    # every node moved by up to two ulps either way, so every cell guess
    # that falls short or overshoots is met (at n=7, T=4.35 one ulp above
    # nodes 3 and 6 the guess is a cell short); with ties, the nodes too
    base = np.linspace(0.0, T, n_steps + 1)
    nudged = [base]
    for direction in (-math.inf, math.inf):
        x = base
        for _ in range(2):
            x = np.nextafter(x, direction)
            nudged.append(x)
    jt = np.sort(np.concatenate(nudged if ties else nudged[1:]))
    _assert_placed_like_union(base, jt[(jt >= 0.0) & (jt <= T)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_grid_and_instants())
def test_merge_jump_times_matches_union(grid_and_instants):
    _assert_placed_like_union(*grid_and_instants)


def test_jumpdecomp_ties_merge_and_sum(monkeypatch):
    # hand-built jump draws with instants on a node and repeated; the path
    # equals the plain recipe on the union grid (diff, noise, np.add.at,
    # cumsum), so a tied row carries the sum of its jumps
    jt = np.array([0.25, 0.25, 0.3, 0.3, 0.3, 0.9])
    sizes = np.array([0.5, -0.25, 1.0, 2.0, -4.0, 0.125])
    monkeypatch.setattr(pathsim, "_draw_jumps", lambda *a: (jt, sizes))
    for mode in ("gaussian", "drop"):
        cfg = SimConfig(T=1.0, n_steps=4, eps=0.1, small_jump_mode=mode,
                        seed=3, x0=0.3)
        path = simulate_path_jumpdecomp(SYM, cfg, path_index=2)
        times, rows = _union_rows(np.linspace(0.0, 1.0, 5), jt)
        dts = np.diff(times)
        incs = -nu_tail_mean(SYM, cfg.eps) * dts
        if mode == "gaussian":
            sigma = math.sqrt(small_jump_variance(SYM, cfg.eps))
            incs = incs + sigma * np.sqrt(dts) * \
                path_rng(3, 2).standard_normal(len(dts))
        np.add.at(incs, rows - 1, sizes)
        values = cfg.x0 + np.concatenate([[0.0], np.cumsum(incs)])
        assert path.times.tobytes() == times.tobytes()
        assert path.values.tobytes() == values.tobytes()
        assert path.jump_rows.tolist() == [1, 1, 2, 2, 2, 5]


def test_jumpdecomp_terminal_law_matches_marginal():
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, small_jump_mode="gaussian",
                    seed=7)
    full = np.array([simulate_path_jumpdecomp(SKEW, cfg, i).values[-1]
                     for i in range(2000)])
    marg = np.array([simulate_path_marginal(SKEW, cfg, i).values[-1]
                     for i in range(2000)])
    assert stats.ks_2samp(full, marg).pvalue > 0.001


def test_terminal_shortcut_matches_full_scheme():
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, small_jump_mode="gaussian",
                    seed=7)
    short = sample_terminal_jumpdecomp(SKEW, cfg, 2000)
    full = np.array([simulate_path_jumpdecomp(SKEW, cfg, i).values[-1]
                     for i in range(2000)])
    assert stats.ks_2samp(short, full).pvalue > 0.001
    # per-path streams: a longer run reproduces the shorter one's prefix
    longer = sample_terminal_jumpdecomp(SKEW, cfg, 2500)
    assert np.array_equal(short, longer[:2000])


def test_terminal_draw_is_the_signed_jump_sum():
    # each draw replayed from its stream with an exactly rounded jump sum;
    # numpy's sum may differ from it by the recursive-summation bound
    cfg = SimConfig(T=1.0, n_steps=2, eps=1e-3, seed=13)
    draws = sample_terminal_jumpdecomp(SKEW, cfg, 3)
    p_plus = SKEW.c_plus / (SKEW.c_plus + SKEW.c_minus)
    sigma = math.sqrt(small_jump_variance(SKEW, cfg.eps) * cfg.T)
    for i, draw in enumerate(draws):
        rng = path_rng(cfg.seed, 2**32 + i)
        n = int(rng.poisson(nu_tail_mass(SKEW, cfg.eps) * cfg.T))
        signs = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        jumps = signs * cfg.eps * rng.random(n) ** (-1.0 / SKEW.alpha)
        ref = cfg.x0 + math.fsum(jumps) - nu_tail_mean(SKEW, cfg.eps) * cfg.T
        ref += sigma * float(rng.standard_normal())
        assert abs(draw - ref) <= n * 2.0 ** -53 * np.abs(jumps).sum()


@pytest.mark.parametrize("triplet, terminal, n_jumps, first_sizes", [
    ((1.3, 3.0, 1.0),
     ["-0x1.8b4c46a2ca82bp+2", "-0x1.f6aa9efa1fe84p+1",
      "-0x1.2533cf3071e40p+2"],
     1217, ["0x1.8874501682d17p-7", "0x1.8dcc18fa645d0p-7",
            "0x1.3ba6ada38be38p-6"]),
    ((1.6, 0.0, 2.0),
     ["0x1.a6940f23c8a33p+2", "-0x1.fb1b28f3031d4p-2",
      "-0x1.6f57bfb080f76p+0"],
     1971, ["-0x1.06f073bb55a12p-6", "-0x1.5bf802655353ep-7",
            "-0x1.f6f14c98d07a3p-7"]),
], ids=["skewed", "one-sided"])
def test_jump_draws_pinned_bitwise(triplet, terminal, n_jumps, first_sizes):
    # both samplers draw signed jump sizes through one recipe; its bits
    # are fixed, so any change of arithmetic or RNG order shows here
    params = derive_params(*triplet)
    cfg = SimConfig(T=1.0, n_steps=64, eps=1e-2, seed=2024)
    draws = sample_terminal_jumpdecomp(params, cfg, 3)
    assert [float(v).hex() for v in draws] == terminal
    path = simulate_path_jumpdecomp(params, cfg, path_index=5)
    assert len(path.jumps) == n_jumps
    assert [float(v).hex() for v in path.jump_sizes[:3]] == first_sizes


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("triplet, sim, digests", [
    ((1.5, 1.0, 1.0), dict(T=1.0, n_steps=256),
     ["edbc8b875099f683", "0469d333c37b7184", "a4eac75ccf249404"]),
    ((1.3, 3.0, 1.0), dict(T=1.0, n_steps=256),
     ["a0295a2dbecd2787", "9e0bc3577e6fa213", "684b46e66ce836ba"]),
    ((1.7, 0.0, 1.0), dict(T=1.0, n_steps=256, small_jump_mode="drop",
                           x0=-0.4),
     ["799e67544e09ac75", "09134435fade99d0", "eb885877835adebf"]),
    ((1.5, 1.0, 1.0), dict(T=0.7, n_steps=300),
     ["0dbb00e4f8c6fb56", "34a5de96b7349e03", "103e4eb4d79c97b3"]),
], ids=["symmetric", "skewed", "one-sided-drop", "short-horizon"])
def test_path_bits_pinned(triplet, sim, digests):
    # digests of times, values and jump_rows: a change of grid placement,
    # arithmetic order or RNG order anywhere in the path shows here
    cfg = SimConfig(eps=1e-2, seed=7, **sim)
    path = simulate_path_jumpdecomp(derive_params(*triplet), cfg, path_index=3)
    assert [_digest(path.times), _digest(path.values),
            _digest(path.jump_rows.astype("<i8"))] == digests


def test_terminal_shortcut_drop_mode_runs():
    cfg = SimConfig(T=1.0, n_steps=16, eps=0.2, small_jump_mode="drop",
                    seed=41)
    vals = sample_terminal_jumpdecomp(SYM, cfg, 500)
    assert vals.shape == (500,)
    assert np.all(np.isfinite(vals))


# -------------------------------------------------------------- statistics

def test_char_function_estimate_trivial_cases():
    with pytest.raises(ValueError):
        empirical_char_function(np.array([]), 1.0)
    est = empirical_char_function(np.zeros(100), 3.0)
    assert est.value == 1.0 + 0.0j
    assert est.stderr_real == 0.0 and est.stderr_imag == 0.0
    est0 = empirical_char_function(np.array([0.3, -2.0, 5.5]), 0.0)
    assert est0.value == 1.0 + 0.0j
    # one sample has no spread to estimate
    est1 = empirical_char_function([0.3], 1.0)
    assert est1.stderr_real == 0.0 and est1.stderr_imag == 0.0


@pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
def test_char_function_estimate_refuses_nonfinite_frequency(u):
    # exp(1j u x) would warn at inf and give NaN silently at NaN
    with pytest.raises(ValueError, match="finite"):
        empirical_char_function(np.array([0.3, -2.0]), u)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_char_function_estimate_refuses_nonfinite_samples(bad):
    # exp(1j u x) would warn at inf, and a NaN would give a NaN estimate
    with pytest.raises(ValueError, match="finite"):
        empirical_char_function(np.array([0.3, bad, -2.0]), 1.0)


@pytest.mark.parametrize("dt", [math.inf, 1e308])
def test_stable_increment_refuses_step_that_overflows(dt):
    # d dt overflows at 1e308 for d > 1, and every draw would be +-inf
    assert SYM.d > 1.0
    with pytest.raises(ValueError, match="dt"):
        sample_stable_increment(SYM, dt, path_rng(0), size=4)


def test_char_function_estimate_fields():
    est = empirical_char_function(np.array([1.0, -1.0]), 1.0)
    assert isinstance(est, CharFunctionEstimate)
    assert est.value.real == pytest.approx(np.cos(1.0))
    assert est.value.imag == pytest.approx(0.0)


def test_moment_scan_stabilizes_below_alpha():
    # running estimates of E|X_1|^gamma over nested prefixes settle for
    # gamma < alpha
    sizes = np.array([50_000, 100_000])
    draws = sample_stable_increment(SYM, 1.0, path_rng(3, 0),
                                    size=int(sizes[-1]))
    ests = np.cumsum(np.abs(draws) ** 0.75)[sizes - 1] / sizes
    assert abs(ests[1] / ests[0] - 1.0) < 0.05


# --------------------------------------------------------------------- io

def test_path_csv_and_sidecar(tmp_path):
    # `stable-tanaka simulate` writes each path as shortest round-trip
    # decimals and a UTF-8 JSON sidecar; both read back exactly
    cfg = SimConfig(T=1.0, n_steps=8, eps=0.1, small_jump_mode="drop", seed=2)
    path = simulate_path_jumpdecomp(SKEW, cfg, 0)
    assert main(["simulate", "--alpha", "1.5", "--c-plus", "3",
                 "--n-steps", "8", "--eps", "0.1", "--small-jump-mode",
                 "drop", "--seed", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "path_0000.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "time,value"
    parsed = np.array([[float(tok) for tok in ln.split(",")]
                       for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], path.times)
    assert np.array_equal(parsed[:, 1], path.values)
    doc = json.loads((tmp_path / "path_0000.json").read_text(
        encoding="utf-8"))
    assert doc["scheme"] == "jumpdecomp"
    assert SimConfig(**doc["config"]) == cfg
    assert np.array_equal(np.array(doc["jumps"]).reshape(-1, 2), path.jumps)
