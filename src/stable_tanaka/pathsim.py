"""Path simulation for strictly stable processes, two ways.

``simulate_path_marginal`` sums exact-marginal increments drawn by the
Chambers-Mallows-Stuck transform in the parametrization whose characteristic
function is exp(dt eta(u)); it is the law oracle. ``simulate_path_jumpdecomp``
realizes the compensated-measure decomposition directly: big jumps |h| > eps
from a Poisson random measure with intensity ds nu(dh), the matching
compensator drift applied continuously, and the |h| <= eps remainder either
dropped or closed by a Brownian motion with the small-jump variance. Only the
second scheme records jumps, which the local-time martingale needs.

All randomness flows through counter-based Philox streams keyed by
(seed, path index), so Monte Carlo runs are reproducible under any parallel
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    StableParams,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
)

__all__ = [
    "SimConfig",
    "PathSample",
    "CharFunctionEstimate",
    "path_rng",
    "sample_stable_increment",
    "simulate_path_marginal",
    "simulate_path_jumpdecomp",
    "sample_terminal_jumpdecomp",
    "empirical_char_function",
]

_SMALL_JUMP_MODES = ("drop", "gaussian")


@dataclass(frozen=True)
class SimConfig:
    """Time horizon, stepping, jump cutoff, and randomness for one run."""

    T: float
    n_steps: int
    eps: float = 1e-3
    small_jump_mode: str = "gaussian"
    seed: int = 0
    x0: float = 0.0

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("horizon T must be positive")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError("n_steps must be a positive integer")
        if not self.T / self.n_steps < 1.0:
            raise ValueError("time step T/n_steps must be below 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("jump cutoff eps must lie in (0, 1)")
        if self.small_jump_mode not in _SMALL_JUMP_MODES:
            raise ValueError(
                f"small_jump_mode must be one of {_SMALL_JUMP_MODES}")
        if not (isinstance(self.seed, (int, np.integer))
                and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not math.isfinite(self.x0):
            raise ValueError(f"starting point x0 must be finite, got {self.x0!r}")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps


@dataclass(frozen=True)
class PathSample:
    """One realized path on a refined grid, plus its jump record.

    ``jumps`` is an (n, 2) float array of ``[time, size]`` rows (n = 0 for
    the marginal scheme). ``times`` always contains every recorded jump
    instant, so the value immediately before a jump at times[k] is
    values[k] - size: integrators that need the pre-jump state read it off
    exactly. Jump rows are in time order, so a prefix of rows is the jump
    record up to a horizon.
    """

    times: np.ndarray
    values: np.ndarray
    jumps: np.ndarray
    scheme: str
    config: Optional[SimConfig] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-D arrays")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("path contains non-finite entries")
        jumps = np.asarray(self.jumps, dtype=float)
        if jumps.shape == (0,):
            jumps = jumps.reshape(0, 2)
        if jumps.ndim != 2 or jumps.shape[1] != 2:
            raise ValueError("jumps must be an (n, 2) array of [time, size] "
                             f"rows, got shape {jumps.shape}")
        if np.any(np.diff(jumps[:, 0]) < 0.0):
            raise ValueError("jump times must not decrease")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jumps", jumps)
        if self.config is not None:
            if values[0] != self.config.x0:
                raise ValueError("values[0] must equal the configured x0")
            if self.scheme == "jumpdecomp" and np.any(
                    np.abs(self.jump_sizes) <= self.config.eps):
                raise ValueError("recorded jumps must exceed the cutoff")

    @property
    def jump_times(self) -> np.ndarray:
        return self.jumps[:, 0]

    @property
    def jump_sizes(self) -> np.ndarray:
        return self.jumps[:, 1]


def path_rng(seed: int, path_index: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, path index): parallel-schedule safe."""
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------- sampling

def sample_stable_increment(params: StableParams, dt: float, rng,
                            size: Optional[int] = None):
    """Draw from the exact increment law, char. function exp(dt eta(u)).

    Chambers-Mallows-Stuck transform; the shift/scale bookkeeping is fixed
    by matching the standard one-parametrization to eta, which makes the
    draw zero-mean for alpha > 1. Pass ``size`` for a vectorized batch.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n = 1 if size is None else int(size)
    a = params.alpha
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    w = rng.standard_exponential(size=n)
    tb = params.beta * params.tan_half_pi_alpha
    b0 = math.atan(tb) / a
    s0 = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
    x = s0 * np.sin(a * (v + b0)) / np.cos(v) ** (1.0 / a) \
        * (np.cos(v - a * (v + b0)) / w) ** ((1.0 - a) / a)
    out = (params.d * dt) ** (1.0 / a) * x
    return float(out[0]) if size is None else out


def simulate_path_marginal(params: StableParams, config: SimConfig,
                           path_index: int = 0) -> PathSample:
    """Sum exact increments on the uniform grid; no jump record."""
    rng = path_rng(config.seed, path_index)
    times = np.linspace(0.0, config.T, config.n_steps + 1)
    incs = sample_stable_increment(params, config.dt, rng, size=config.n_steps)
    values = config.x0 + np.concatenate([[0.0], np.cumsum(incs)])
    return PathSample(times=times, values=values, jumps=(),
                      scheme="marginal", config=config)


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
    lam = nu_tail_mass(params, config.eps)
    n_jumps = int(rng.poisson(lam * config.T))
    jt = config.T * rng.random(n_jumps)
    while np.any(jt == 0.0):  # keep jump instants strictly inside (0, T)
        jt[jt == 0.0] = config.T * rng.random(int(np.sum(jt == 0.0)))
    return np.sort(jt), _jump_sizes(params, config.eps, n_jumps, rng)


def simulate_path_jumpdecomp(params: StableParams, config: SimConfig,
                             path_index: int = 0) -> PathSample:
    """Compound-Poisson big jumps + compensator drift (+ gaussian closure).

    The uniform grid is refined by the jump instants, so consecutive values
    bracket each jump exactly: the increment into a jump time carries that
    interval's drift (and gaussian noise) plus the jump size itself.
    """
    rng = path_rng(config.seed, path_index)
    jt, sizes = _draw_jumps(params, config, rng)
    drift = -nu_tail_mean(params, config.eps)

    base = np.linspace(0.0, config.T, config.n_steps + 1)
    times = np.union1d(base, jt)
    dts = np.diff(times)
    incs = drift * dts
    if config.small_jump_mode == "gaussian":
        sigma = math.sqrt(small_jump_variance(params, config.eps))
        incs = incs + sigma * np.sqrt(dts) * rng.standard_normal(len(dts))
    np.add.at(incs, np.searchsorted(times, jt) - 1, sizes)
    values = config.x0 + np.concatenate([[0.0], np.cumsum(incs)])
    return PathSample(times=times, values=values,
                      jumps=np.column_stack([jt, sizes]),
                      scheme="jumpdecomp", config=config)


def sample_terminal_jumpdecomp(params: StableParams, config: SimConfig,
                               n_paths: int,
                               stream_offset: int = 2**32) -> np.ndarray:
    """Terminal values X_T under the jump-decomposition scheme, no grid.

    Sums the same three components as ``simulate_path_jumpdecomp`` -- big
    jumps, drift, and (in gaussian mode) a single N(0, sigma^2 T) closure --
    without materializing paths, which matters at small eps where a single
    unit-time path carries ~eps^(-alpha) jumps. Each path gets its own
    stream keyed (seed, stream_offset + i), offset past the full-path
    streams; law-equality with the full scheme is pinned by a two-sample
    test rather than by shared code paths.
    """
    lam = nu_tail_mass(params, config.eps)
    drift = -nu_tail_mean(params, config.eps)
    sigma = math.sqrt(small_jump_variance(params, config.eps) * config.T)
    out = np.empty(n_paths)
    for i in range(n_paths):
        rng = path_rng(config.seed, stream_offset + i)
        n_jumps = int(rng.poisson(lam * config.T))
        jumps = _jump_sizes(params, config.eps, n_jumps, rng)
        # numpy's sum, not a BLAS dot, so the bits ignore the thread count
        val = config.x0 + float(jumps.sum()) + drift * config.T
        if config.small_jump_mode == "gaussian":
            val += sigma * float(rng.standard_normal())
        out[i] = val
    return out


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
    z = np.exp(1j * u * x)
    n = x.size
    if n > 1:
        se_re = float(z.real.std(ddof=1) / math.sqrt(n))
        se_im = float(z.imag.std(ddof=1) / math.sqrt(n))
    else:
        se_re = se_im = 0.0
    return CharFunctionEstimate(value=complex(z.mean()), stderr_real=se_re,
                                stderr_imag=se_im)
