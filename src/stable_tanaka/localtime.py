"""Local-time estimators: mollified occupation integrals and the kernel route.

Two estimators of the local time L^a_t:

* ``occupation_estimator`` -- Riemann sum of rho_n(X_s - a) ds, the mollified
  occupation density;
* ``tanaka_estimator`` -- F(X_t - a) - F(X_0 - a) - M^a_t, where the
  martingale part M sums compensated kernel increments over the recorded
  jumps. This needs the jump record, so only jump-decomposition paths
  qualify.

``occupation_formula_check`` closes the loop: integrating either estimated
local-time curve against a test function must reproduce the direct
time-integral of that function along the path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .kernel import MollifierSpec, compensator_density, kernel_F
from .params import StableParams, nu_tail_mean
from .pathsim import PathSample
from .spectral import negative_moment_bound

__all__ = [
    "LocalTimeEstimate",
    "SMALL_JUMP_IN_M_MODES",
    "DEFAULT_SMALL_JUMP_IN_M",
    "occupation_estimator",
    "martingale_part",
    "tanaka_estimator",
    "occupation_formula_check",
    "occupation_curve",
    "tanaka_curve",
    "default_a_grid",
    "default_mollifier",
    "hat_function",
    "martingale_l2_bound",
]

_METHODS = ("occupation", "tanaka")

# How the gaussian small-jump closure enters M: "include" adds the kernel
# increment along each reconstructed Brownian micro-move, "drop" leaves the
# closure out of M entirely (it still moves the path). "drop" keeps M
# structurally mean-zero and wins the estimator-agreement comparison, so it
# is the default; see the calibration numbers in the test suite.
SMALL_JUMP_IN_M_MODES = ("include", "drop")
DEFAULT_SMALL_JUMP_IN_M = "drop"


@dataclass(frozen=True)
class LocalTimeEstimate:
    """One estimated local-time value with its declared undershoot slack.

    Local times are nonnegative; discretized estimators may dip slightly
    below zero, by no more than the declared tolerance. Construction
    enforces value >= -tolerance. The occupation estimator is nonnegative
    by construction and declares zero tolerance; the kernel-based estimator
    is noisy on both sides and declares an infinite default unless the
    caller tightens it.
    """

    a: float
    t: float
    value: float
    method: str
    discretization: dict
    tolerance: float = 0.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if not self.tolerance >= 0.0:
            raise ValueError("tolerance must be nonnegative")
        if not self.value >= -self.tolerance:
            raise ValueError(
                f"local-time estimate {self.value:.6g} under the declared "
                f"floor -{self.tolerance:.6g}")


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


def _sliced(path: PathSample, t):
    """Grid, values, and jump record up to horizon t (grid-aligned)."""
    times, values = path.times, path.values
    if t is None:
        k = len(times)
    else:
        if not 0.0 < t <= times[-1] + 1e-12:
            raise ValueError("t must lie within the simulated horizon")
        k = int(np.searchsorted(times, t, side="right"))
        if k < 2:
            raise ValueError("t must cover at least one grid step")
    jt, js = path.jump_times, path.jump_sizes
    keep = jt <= times[k - 1]
    return times[:k], values[:k], jt[keep], js[keep]


# ------------------------------------------------------------- occupation

def occupation_estimator(path: PathSample, a: float, moll: MollifierSpec,
                         t: float | None = None) -> LocalTimeEstimate:
    """Riemann sum of rho_n(X_s - a) ds over the path's grid."""
    times, values, _, _ = _sliced(path, t)
    dts = np.diff(times)
    lefts = values[:-1]
    in_support = int(np.sum(np.abs(lefts - a) < moll.width))
    if in_support < 10:
        warnings.warn(
            f"only {in_support} grid points fall in the mollifier support "
            f"around a={a:g}; the Riemann sum is under-resolved there",
            RuntimeWarning, stacklevel=2)
    step_scale = float(np.median(np.abs(np.diff(values))))
    if moll.width < step_scale:
        warnings.warn(
            f"mollifier width {moll.width:.3g} is below the typical step "
            f"displacement {step_scale:.3g}; the sum may miss crossings",
            RuntimeWarning, stacklevel=2)
    value = float(moll(lefts - a) @ dts)
    return LocalTimeEstimate(
        a=a, t=float(times[-1]), value=value, method="occupation",
        discretization={"n": moll.n, "n_steps": len(times) - 1},
        tolerance=0.0)


def occupation_curve(path: PathSample, a_grid, moll: MollifierSpec,
                     t: float | None = None, chunk: int = 64) -> np.ndarray:
    """Vectorized occupation estimates over a grid of levels."""
    times, values, _, _ = _sliced(path, t)
    dts = np.diff(times)
    lefts = values[:-1]
    a_grid = np.asarray(a_grid, dtype=float)
    out = np.empty(a_grid.shape)
    for start in range(0, len(a_grid), chunk):
        block = a_grid[start:start + chunk]
        out[start:start + chunk] = moll(lefts[None, :]
                                        - block[:, None]) @ dts
    return out


# -------------------------------------------------------------- martingale

def _require_jump_record(path: PathSample):
    if path.scheme != "jumpdecomp" or path.config is None:
        raise ValueError(
            "the martingale part needs the jump record; simulate with "
            "the jump-decomposition scheme")


def _compensator_interp(params: StableParams, eps: float, x):
    """G_eps at x by linear interpolation between closed-form node values.

    Nodes run 40 per decade over 1e-2 eps <= |x| <= 1e3, mirrored, plus 0;
    beyond the outermost node the value clamps. Filling the nodes is cheap,
    and interpolating at every path point is ~5x faster than evaluating
    the closed form there.
    """
    x_min = 1e-2 * eps
    n_nodes = int(round(math.log10(1e3 / x_min) * 40)) + 1
    mags = np.geomspace(x_min, 1e3, n_nodes)
    nodes = np.concatenate([-mags[::-1], [0.0], mags])
    return np.interp(x, nodes, compensator_density(params, nodes, eps))


def martingale_part(params: StableParams, path: PathSample, a: float,
                    t: float | None = None,
                    small_jump_in_M: str | None = None) -> float:
    """Discretized compensated-jump martingale M^a_t along one path.

    Sum over recorded jumps of F(X_pre - a + h) - F(X_pre - a), minus the
    left-point Riemann sum of the compensator density G_eps(X_s - a). In
    gaussian closure mode with ``small_jump_in_M="include"`` the kernel
    increment along each reconstructed Brownian micro-move is added as well.
    """
    _require_jump_record(path)
    mode = DEFAULT_SMALL_JUMP_IN_M if small_jump_in_M is None \
        else small_jump_in_M
    if mode not in SMALL_JUMP_IN_M_MODES:
        raise ValueError(
            f"small_jump_in_M must be one of {SMALL_JUMP_IN_M_MODES}")
    cfg = path.config
    times, values, jt, js = _sliced(path, t)

    value = 0.0
    if len(jt):
        idx = np.searchsorted(times, jt)
        post = values[idx]
        value += float(np.sum(kernel_F(params, post - a)
                              - kernel_F(params, post - js - a)))
    dts = np.diff(times)
    lefts = values[:-1]
    value -= float(_compensator_interp(params, cfg.eps, lefts - a) @ dts)

    if mode == "include" and cfg.small_jump_mode == "gaussian":
        # the value change between events is drift*dt + sigma*dW, plus the
        # jump at the right endpoint; peel those off to recover the
        # Brownian micro-moves
        moves = np.diff(values) + nu_tail_mean(params, cfg.eps) * dts
        if len(jt):
            np.add.at(moves, np.searchsorted(times, jt) - 1, -js)
        value += float(np.sum(kernel_F(params, lefts + moves - a)
                              - kernel_F(params, lefts - a)))
    return value


def tanaka_estimator(params: StableParams, path: PathSample, a: float,
                     t: float | None = None,
                     small_jump_in_M: str | None = None,
                     tolerance: float = math.inf) -> LocalTimeEstimate:
    """Kernel-endpoint estimator F(X_t - a) - F(X_0 - a) - M^a_t."""
    _require_jump_record(path)
    times, values, _, _ = _sliced(path, t)
    m = martingale_part(params, path, a, t=t,
                        small_jump_in_M=small_jump_in_M)
    value = float(kernel_F(params, values[-1] - a)
                  - kernel_F(params, values[0] - a) - m)
    return LocalTimeEstimate(
        a=a, t=float(times[-1]), value=value, method="tanaka",
        discretization={"eps": path.config.eps,
                        "n_steps": path.config.n_steps},
        tolerance=tolerance)


def tanaka_curve(params: StableParams, path: PathSample, a_grid,
                 t: float | None = None,
                 small_jump_in_M: str | None = None) -> np.ndarray:
    """Raw kernel-route estimates over a grid of levels (no floor checks)."""
    _require_jump_record(path)
    times, values, _, _ = _sliced(path, t)
    end, start = values[-1], values[0]
    a_grid = np.asarray(a_grid, dtype=float)
    out = np.empty(a_grid.shape)
    for j, a in enumerate(a_grid):
        m = martingale_part(params, path, float(a), t=t,
                            small_jump_in_M=small_jump_in_M)
        out[j] = kernel_F(params, end - a) - kernel_F(params, start - a) - m
    return out


# ------------------------------------------------------ occupation formula

def default_a_grid(path: PathSample, n_points: int = 201) -> np.ndarray:
    """Uniform level grid covering the path's range with unit margin."""
    return np.linspace(path.values.min() - 1.0, path.values.max() + 1.0,
                       n_points)


def occupation_formula_check(path: PathSample, g, a_grid,
                             moll: MollifierSpec,
                             t: float | None = None,
                             estimator: str = "occupation",
                             params: StableParams | None = None,
                             small_jump_in_M: str | None = None) -> float:
    """Relative residual of int g(a) L^a_t da against int_0^t g(X_s) ds.

    The left side integrates the estimated local-time curve over the level
    grid (trapezoid); the right side is a time-Riemann sum along the path.
    The two share no numerics beyond the path itself.
    """
    times, values, _, _ = _sliced(path, t)
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or len(a_grid) < 2 or np.any(np.diff(a_grid) <= 0):
        raise ValueError("a_grid must be increasing with at least 2 points")
    if (a_grid[0] > values.min() - moll.width
            or a_grid[-1] < values.max() + moll.width):
        raise ValueError(
            "a_grid must span the path's range with mollifier margin")
    if estimator == "occupation":
        curve = occupation_curve(path, a_grid, moll, t=t)
    elif estimator == "tanaka":
        if params is None:
            raise ValueError("the kernel-route curve needs params")
        curve = tanaka_curve(params, path, a_grid, t=t,
                             small_jump_in_M=small_jump_in_M)
    else:
        raise ValueError(f"estimator must be one of {_METHODS}")
    lhs = float(np.trapezoid(g(a_grid) * curve, a_grid))
    rhs = float(g(values[:-1]) @ np.diff(times))
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


# ----------------------------------------------------------------- bounds

def martingale_l2_bound(params: StableParams, t: float,
                        eps0: float | None = None) -> float:
    """Quadrature of the square-integrability bound on E[(M^a_t)^2].

    Integrates the kernel-increment growth bound against the jump measure:
    the far field contributes 8 D^2 (c+ + c-) t/(2-alpha); the near field
    couples to the uniform negative-moment bound E|X_s - a|^(a-e0-2) and is
    integrated over s by quadrature.
    """
    a = params.alpha
    e0 = min(a - 1.0, 2.0 - a) / 2.0 if eps0 is None else eps0
    if not 0.0 < e0 < min(a - 1.0, 2.0 - a):
        raise ValueError("eps0 must lie in (0, min(alpha-1, 2-alpha))")
    gamma = 2.0 + e0 - a
    pref = 8.0 * params.big_d ** 2 * (params.c_plus + params.c_minus)
    far = pref * t / (2.0 - a)
    near_integral, _ = integrate.quad(
        lambda s: negative_moment_bound(params, gamma, s), 0.0, t,
        epsabs=1e-12, epsrel=1e-10, limit=300)
    return far + pref / e0 * near_integral
