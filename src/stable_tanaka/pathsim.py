"""Path simulation for strictly stable processes, two ways.

``simulate_path_marginal`` sums exact-marginal increments drawn by the
Chambers-Mallows-Stuck transform in the parametrization whose characteristic
function is exp(dt eta(u)); it is the law oracle. ``simulate_path_jumpdecomp``
realizes the compensated-measure decomposition directly: big jumps |h| > eps
from a Poisson random measure with intensity ds nu(dh), the matching
compensator drift applied continuously, and the |h| <= eps remainder closed
by a Brownian motion with the small-jump variance. Only the second scheme
records jumps, which the local-time martingale needs.

All randomness flows through counter-based Philox streams keyed by
(seed, path index), so Monte Carlo runs are reproducible under any parallel
schedule. The package's loops over independent paths run on that: ``_blocks``,
the one place the package starts threads, splits path indices into one
contiguous block per usable CPU, each of at least ``_MIN_BLOCK`` indices.
Each call that fans out runs the first block on the calling thread and
starts its own threads for the others, and joins them before it returns.
Each value depends only on its own inputs, so every float is the same at
every thread count.

Each path allocates its arrays anew, and with glibc's default thresholds
the heap hands what a path frees back to the kernel, so every later path
would fault it back in. Importing this module therefore sets two allocator
thresholds, for the whole process and on glibc only: a block of up to
32 MiB comes from the heap, and the heap keeps at most 64 MiB of free
memory at its top. Nothing else is retained: a larger block is still
mapped on its own and unmapped when freed.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    StableParams,
    _is_integer,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
)

__all__ = [
    "SimConfig",
    "PathSample",
    "CharFunctionEstimate",
    "path_rng",
    "expected_jump_count",
    "sample_stable_increment",
    "simulate_path_marginal",
    "simulate_path_jumpdecomp",
    "sample_terminal_jumpdecomp",
    "empirical_char_function",
]

# the longest float64 array numpy can allocate, for a grid or a jump record
_ARRAY_MAX = float(np.iinfo(np.intp).max // 8)


def _stream_key(name: str, key):
    """``key`` if it can key a Philox stream: an int or numpy integer, not
    a bool, in [0, 2**64). Anything else would be cast into another
    stream's key, or fail midway through a run, so it raises ValueError."""
    if not (_is_integer(key) and 0 <= key < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {key!r}")
    return key


@dataclass(frozen=True)
class SimConfig:
    """Time horizon, stepping, jump cutoff, and randomness for one run."""

    T: float
    n_steps: int
    eps: float = 1e-3
    seed: int = 0
    x0: float = 0.0

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("horizon T must be positive")
        if not (_is_integer(self.n_steps) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer, got "
                             f"{self.n_steps!r}")
        if not self.n_steps < _ARRAY_MAX:
            raise ValueError(
                f"n_steps={self.n_steps} gives a grid longer than the "
                f"{_ARRAY_MAX:g} points numpy can allocate")
        if not self.T / self.n_steps < 1.0:
            raise ValueError("time step T/n_steps must be below 1")
        # linspace(0, T, n + 1) places node k < n at k (T/n) and the last
        # at T, so its nodes are distinct exactly when this holds; a
        # subnormal horizon can round them together
        step = self.T / self.n_steps
        if not (step > 0.0 and (self.n_steps - 1) * step < self.T):
            raise ValueError(
                f"horizon T={self.T!r} over n_steps={self.n_steps} gives a "
                f"time grid whose nodes are not distinct doubles")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("jump cutoff eps must lie in (0, 1)")
        _stream_key("seed", self.seed)
        if not math.isfinite(self.x0):
            raise ValueError(f"starting point x0 must be finite, got {self.x0!r}")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps


@dataclass(frozen=True)
class PathSample:
    """One realized path on a refined grid, plus its jump record.

    ``scheme`` is ``"jumpdecomp"`` or ``"marginal"``. The jump record is
    ``jump_rows``, integer grid rows in non-decreasing order, and
    ``jump_sizes``, one finite size per row (both empty for the marginal
    scheme, and refused there otherwise). A jump happens at times[row],
    so values[row] is the post-jump state and values[row] - size the
    pre-jump state: integrators that need the pre-jump state read it off
    exactly, and a jump between grid points cannot be expressed. Rows are
    in time order, so a prefix of the record is the jump record up to a
    horizon.
    """

    times: np.ndarray
    values: np.ndarray
    jump_rows: np.ndarray
    jump_sizes: np.ndarray
    scheme: str
    config: Optional[SimConfig] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-D arrays")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("path contains non-finite entries")
        if self.scheme not in ("jumpdecomp", "marginal"):
            raise ValueError("scheme must be 'jumpdecomp' or 'marginal', "
                             f"got {self.scheme!r}")
        rows = np.asarray(self.jump_rows)
        sizes = np.asarray(self.jump_sizes, dtype=float)
        if rows.ndim != 1 or rows.shape != sizes.shape:
            raise ValueError("jump_rows and jump_sizes must be matching 1-D "
                             f"arrays, got shapes {rows.shape} and "
                             f"{sizes.shape}")
        if rows.size and rows.dtype.kind not in "iu":
            raise ValueError("jump_rows must be integers, got dtype "
                             f"{rows.dtype}")
        rows = rows.astype(np.intp, copy=False)
        if rows.size and not (1 <= rows[0] and rows[-1] < len(times)
                              and np.all(np.diff(rows) >= 0)):
            raise ValueError("jump_rows must be non-decreasing rows in "
                             f"[1, {len(times)})")
        if not np.all(np.isfinite(sizes)):
            raise ValueError("jump_sizes must be finite")
        if self.scheme == "marginal" and rows.size:
            raise ValueError("a marginal path records no jumps")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jump_rows", rows)
        object.__setattr__(self, "jump_sizes", sizes)
        if self.config is not None:
            if values[0] != self.config.x0:
                raise ValueError("values[0] must equal the configured x0")
            if self.scheme == "jumpdecomp" and np.any(
                    np.abs(sizes) <= self.config.eps):
                raise ValueError("recorded jumps must exceed the cutoff")

    @property
    def jump_times(self) -> np.ndarray:
        return self.times[self.jump_rows]

    @property
    def jumps(self) -> np.ndarray:
        """The record as an (n, 2) array of ``[time, size]`` rows."""
        return np.column_stack([self.jump_times, self.jump_sizes])


def path_rng(seed: int, path_index: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, path index): parallel-schedule safe.
    Each key must be an integer in [0, 2**64), else ValueError."""
    key = np.array([_stream_key("seed", seed),
                    _stream_key("path index", path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------- the path loops

def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _keep_freed_memory() -> None:
    """Keep freed path arrays in the process, on glibc; elsewhere a no-op.

    With glibc's defaults the heap hands freed memory back to the kernel
    path after path, and each path faults its arrays back in: about 800
    minor faults per criterion-5 path, against none with both thresholds
    set. Either one alone leaves them (setting one stops glibc's own
    adjustment of the other).
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # malloc.h's M_MMAP_THRESHOLD at the largest value glibc accepts on 64
    # bits, and M_TRIM_THRESHOLD at twice that, glibc's own ratio when it
    # raises the two itself
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


_keep_freed_memory()


# the fewest indices a block of _blocks holds. A block of one or two grid
# paths is a few milliseconds, about one scheduler slice, so its time turns
# on whether the other CPU is free at that instant: on a shared 2-core box,
# two-path calls ran 1.1 to 1.6 times as fast as inline from one run to the
# next, and inline they held steady
_MIN_BLOCK = 4


def _blocks(n: int, per_index) -> list:
    """``[per_index(i) for i in range(n)]`` over one contiguous block of
    indices per CPU, none shorter than ``_MIN_BLOCK``, with the serial
    loop's exception.

    The calling thread runs the first block and threads of its own the
    others, all joined before this returns or raises; with one block no
    thread starts. A failure at index k stops every block before its next
    index above k, and an interrupt of the calling thread every block at
    its next index; the blocks below k run on, as the serial loop would
    have run them, so the exception raised is the lowest failing index's.
    """
    # no block starts an index at or above an entry; appends need no lock,
    # and a block that reads the list just before one makes one call more
    stops = []

    def block(lo, hi):
        out = []
        for i in range(lo, hi):
            if stops and i >= min(stops):
                break
            try:
                out.append(per_index(i))
            except BaseException:
                stops.append(i)
                raise
        return out

    k = max(1, min(n // _MIN_BLOCK, _cpus()))
    if k == 1:
        return block(0, n)
    bounds = [b * n // k for b in range(k + 1)]
    # leaving the with block joins every thread, however it is left
    with ThreadPoolExecutor(k - 1) as pool:
        rest = [pool.submit(block, lo, hi)
                for lo, hi in zip(bounds[1:], bounds[2:])]
        try:
            parts = [block(0, bounds[1])] + [f.result() for f in rest]
        except BaseException:
            stops.append(0)
            raise
    return [value for part in parts for value in part]


# ---------------------------------------------------------------- sampling

def sample_stable_increment(params: StableParams, dt: float, rng,
                            size: int) -> np.ndarray:
    """``size`` draws of the exact increment, char. function exp(dt eta(u)).

    Chambers-Mallows-Stuck transform; the shift/scale bookkeeping is fixed
    by matching the standard one-parametrization to eta, which makes the
    draw zero-mean for alpha > 1.
    """
    # d dt past the largest double would scale every draw to +-inf
    if not 0.0 < params.d * dt < math.inf:
        raise ValueError(f"dt must be positive, with d dt finite, got {dt!r}")
    a = params.alpha
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.standard_exponential(size=size)
    tb = params.beta * params.tan_half_pi_alpha
    b0 = math.atan(tb) / a
    s0 = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
    x = s0 * np.sin(a * (v + b0)) / np.cos(v) ** (1.0 / a) \
        * (np.cos(v - a * (v + b0)) / w) ** ((1.0 - a) / a)
    return (params.d * dt) ** (1.0 / a) * x


def simulate_path_marginal(params: StableParams, config: SimConfig,
                           path_index: int = 0) -> PathSample:
    """Sum exact increments on the uniform grid; no jump record."""
    rng = path_rng(config.seed, path_index)
    times = np.linspace(0.0, config.T, config.n_steps + 1)
    incs = sample_stable_increment(params, config.dt, rng, size=config.n_steps)
    values = config.x0 + np.concatenate([[0.0], np.cumsum(incs)])
    return PathSample(times=times, values=values, jump_rows=(),
                      jump_sizes=(), scheme="marginal", config=config)


# the largest mean whose draw, less ten standard deviations, still fits the
# longest float64 array; numpy's Poisson sampler accepts means up to the
# int64 maximum, far above it
_JUMP_MEAN_MAX = _ARRAY_MAX - 10.0 * math.sqrt(_ARRAY_MAX)


def expected_jump_count(params: StableParams, config: SimConfig) -> float:
    """nu({|h| > eps}) T, the mean number of jumps one path records.

    Raises ValueError when no count can be drawn and held from it: the
    mean overflows a float, or its draw could exceed the longest float64
    array numpy can allocate. A count that fits that limit but not the
    machine's memory raises MemoryError when its arrays are allocated;
    the command line's ``main`` maps that to a config error.
    """
    try:
        mean = nu_tail_mass(params, config.eps) * config.T
    except OverflowError:
        mean = math.inf
    if not mean <= _JUMP_MEAN_MAX:
        raise ValueError(
            f"jump cutoff eps={config.eps:g} gives {mean:g} expected jumps "
            f"per path, beyond the {_JUMP_MEAN_MAX:g} that one path's arrays "
            f"can hold")
    return mean


def _jump_sizes(params: StableParams, eps: float, n_jumps: int, rng):
    """n_jumps draws from nu restricted to |h| > eps, in two buffers.

    A uniform u gives the sign, + when u < p = c+/(c+ + c-); a second
    uniform v gives the magnitude eps v^(-1/alpha).
    """
    side = rng.random(n_jumps)
    side -= params.c_plus / (params.c_plus + params.c_minus)
    np.negative(side, out=side)  # u == p gives -0.0, a negative jump
    sizes = rng.random(n_jumps)
    sizes **= -1.0 / params.alpha
    sizes *= eps
    return np.copysign(sizes, side, out=sizes)


def _draw_jumps(params: StableParams, config: SimConfig, rng):
    n_jumps = int(rng.poisson(expected_jump_count(params, config)))
    jt = config.T * rng.random(n_jumps)
    while np.any(jt == 0.0):  # keep jump instants strictly inside (0, T)
        jt[jt == 0.0] = config.T * rng.random(int(np.sum(jt == 0.0)))
    return np.sort(jt), _jump_sizes(params, config.eps, n_jumps, rng)


def _merge_jump_times(base: np.ndarray, jt: np.ndarray):
    """Merge sorted instants ``jt`` in [0, T] into ``base = linspace(0, T, n+1)``.

    Returns the refined grid, each instant's row in it and the grid's
    steps: the same arrays as ``union1d(base, jt)``, a ``searchsorted`` of
    ``jt`` into it and its ``diff``. numpy's stable sort merges the two
    sorted runs and keeps the order within each: a node comes before an
    instant equal to it, and the merged points taken from ``jt`` are the
    instants in turn. A run of equal points is one grid point, the row of
    every point in the run: an instant's merged position less the repeats
    at or before it.
    """
    times = np.concatenate([base, jt])
    order = np.argsort(times, kind="stable")
    times = times[order]
    repeat = np.flatnonzero(times[1:] == times[:-1]) + 1
    rows = np.flatnonzero(order >= len(base))
    rows -= np.searchsorted(repeat, rows, side="right")
    times = np.delete(times, repeat)
    return times, rows, np.diff(times)


def simulate_path_jumpdecomp(params: StableParams, config: SimConfig,
                             path_index: int = 0) -> PathSample:
    """Compound-Poisson big jumps + compensator drift + gaussian closure.

    The uniform grid is refined by the jump instants: the refined grid is a
    merge of the two sorted sets, where an instant that ties with a node or
    with another instant merges into one point. Consecutive values bracket
    each jump exactly: the increment into a jump time carries that
    interval's drift and gaussian noise plus the jump size itself.
    """
    rng = path_rng(config.seed, path_index)
    jt, sizes = _draw_jumps(params, config, rng)
    drift = -nu_tail_mean(params, config.eps)
    times, rows, incs = _merge_jump_times(
        np.linspace(0.0, config.T, config.n_steps + 1), jt)

    noise = np.sqrt(incs)
    noise *= math.sqrt(small_jump_variance(params, config.eps))
    noise *= rng.standard_normal(len(incs))
    incs *= drift
    incs += noise
    np.add.at(incs, rows - 1, sizes)
    values = np.empty(len(times))
    values[0] = 0.0
    np.cumsum(incs, out=values[1:])
    values += config.x0
    return PathSample(times=times, values=values, jump_rows=rows,
                      jump_sizes=sizes, scheme="jumpdecomp", config=config)


def sample_terminal_jumpdecomp(params: StableParams, config: SimConfig,
                               n_paths: int,
                               stream_offset: int = 2**32) -> np.ndarray:
    """Terminal values X_T under the jump-decomposition scheme, no grid.

    Sums the same three components as ``simulate_path_jumpdecomp`` -- big
    jumps, drift, and a single N(0, sigma^2 T) gaussian closure --
    without materializing paths, which matters at small eps where a single
    unit-time path carries ~eps^(-alpha) jumps. Each path gets its own
    stream keyed (seed, stream_offset + i), offset past the full-path
    streams; law-equality with the full scheme is pinned by a two-sample
    test rather than by shared code paths.
    """
    mean = expected_jump_count(params, config)
    drift = -nu_tail_mean(params, config.eps)
    sigma = math.sqrt(small_jump_variance(params, config.eps) * config.T)
    if not (_is_integer(n_paths) and n_paths >= 0):
        raise ValueError(f"n_paths must be a nonnegative integer, got "
                         f"{n_paths!r}")
    # the last stream's key is checked before the first draw
    _stream_key("stream_offset", stream_offset)
    if n_paths > 0:
        _stream_key("stream_offset + n_paths - 1",
                    int(stream_offset) + int(n_paths) - 1)

    def draw(i):
        rng = path_rng(config.seed, stream_offset + i)
        n_jumps = int(rng.poisson(mean))
        jumps = _jump_sizes(params, config.eps, n_jumps, rng)
        # numpy's sum, not a BLAS dot, so the bits ignore the thread count
        return config.x0 + float(jumps.sum()) + drift * config.T \
            + sigma * float(rng.standard_normal())

    return np.array(_blocks(n_paths, draw), dtype=float)


# -------------------------------------------------------------- statistics

@dataclass(frozen=True)
class CharFunctionEstimate:
    """Sample mean of e^{iux} with componentwise standard errors."""

    value: complex
    stderr_real: float
    stderr_imag: float


def empirical_char_function(samples, u: float) -> CharFunctionEstimate:
    """Monte Carlo estimate of E e^{iuX} from a sample array."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if not math.isfinite(u):
        raise ValueError(f"frequency u must be finite, got {u!r}")
    z = np.exp(1j * u * x)
    n = x.size
    if n > 1:
        se_re = float(z.real.std(ddof=1) / math.sqrt(n))
        se_im = float(z.imag.std(ddof=1) / math.sqrt(n))
    else:
        se_re = se_im = 0.0
    return CharFunctionEstimate(value=complex(z.mean()), stderr_real=se_re,
                                stderr_imag=se_im)
