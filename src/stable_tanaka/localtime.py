"""Local-time estimators: mollified occupation integrals and the kernel route.

Two estimators of the local time L^a_t:

* ``occupation_curve`` -- Riemann sum of rho_n(X_s - a) ds, the mollified
  occupation density;
* ``tanaka_curve`` -- F(X_t - a) - F(X_0 - a) - M^a_t, where the
  martingale part M sums compensated kernel increments over the recorded
  jumps. This needs the jump record, so only jump-decomposition paths
  qualify.

Both curves, and ``martingale_part`` given an array of levels, run one
blocked loop over levels; ``occupation_estimator`` and ``tanaka_estimator``
are the one-level case of the curves.

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
from .params import StableParams
from .pathsim import PathSample
from .spectral import negative_moment_bound

__all__ = [
    "LocalTimeEstimate",
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
_LEVEL_BLOCK = 32  # levels per (levels x grid points) array


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
    """Grid and values up to horizon t (grid-aligned)."""
    if t is None:
        return path.times, path.values
    if not 0.0 < t <= path.times[-1] + 1e-12:
        raise ValueError("t must lie within the simulated horizon")
    k = int(np.searchsorted(path.times, t, side="right"))
    if k < 2:
        raise ValueError("t must cover at least one grid step")
    return path.times[:k], path.values[:k]


def _blocked_levels(levels, lefts, dts, integrand, jump_part=None):
    """Left-point Riemann sums of integrand(X_s - a) ds, _LEVEL_BLOCK at a time.

    Each row is reduced by its own 1-D dot with ``dts``, so a level's value
    does not depend on its block. ``jump_part`` maps a block of levels to
    values from which the sums are subtracted.
    """
    out = np.empty(len(levels))
    for start in range(0, len(levels), _LEVEL_BLOCK):
        block = levels[start:start + _LEVEL_BLOCK]
        sums = np.array([row @ dts
                         for row in integrand(lefts - block[:, None])])
        out[start:start + len(block)] = \
            sums if jump_part is None else jump_part(block) - sums
    return out


# ------------------------------------------------------------- occupation

def occupation_estimator(path: PathSample, a: float, moll: MollifierSpec,
                         t: float | None = None) -> LocalTimeEstimate:
    """Riemann sum of rho_n(X_s - a) ds, with under-resolution advisories."""
    times, values = _sliced(path, t)
    in_support = int(np.sum(np.abs(values[:-1] - a) < moll.width))
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
    return LocalTimeEstimate(
        a=a, t=float(times[-1]), method="occupation",
        value=float(occupation_curve(path, [a], moll, t)[0]),
        discretization={"n": moll.n, "n_steps": len(times) - 1},
        tolerance=0.0)


def occupation_curve(path: PathSample, a_grid, moll: MollifierSpec,
                     t: float | None = None) -> np.ndarray:
    """Occupation estimates (Riemann sums of rho_n(X_s - a) ds) over levels."""
    times, values = _sliced(path, t)
    return _blocked_levels(np.asarray(a_grid, dtype=float), values[:-1],
                           np.diff(times), moll)


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
    the closed form there. Inside the innermost cell G_eps has its
    |x|^(alpha-1) cusp, which a chord misses by up to 1.7% of G(0), so the
    few points there take the closed form directly.
    """
    x_min = 1e-2 * eps
    n_nodes = int(round(math.log10(1e3 / x_min) * 40)) + 1
    mags = np.geomspace(x_min, 1e3, n_nodes)
    nodes = np.concatenate([-mags[::-1], [0.0], mags])
    out = np.interp(x, nodes, compensator_density(params, nodes, eps))
    cusp = np.abs(x) < x_min
    out[cusp] = compensator_density(params, x[cusp], eps)
    return out


def martingale_part(params: StableParams, path: PathSample, a,
                    t: float | None = None):
    """Discretized compensated-jump martingale M^a_t along one path.

    Sum over recorded jumps of F(X_pre - a + h) - F(X_pre - a), minus the
    left-point Riemann sum of the compensator density G_eps(X_s - a). The
    gaussian small-jump closure moves the path but stays out of M, which
    keeps M structurally mean-zero. ``a`` is a level (the result is a
    float) or an array of levels (the result has its shape).
    """
    _require_jump_record(path)
    times, values = _sliced(path, t)
    jumps = path.jumps[path.jump_times <= times[-1]]
    post = values[np.searchsorted(times, jumps[:, 0])]
    pre = post - jumps[:, 1]
    levels = np.asarray(a, dtype=float)
    out = _blocked_levels(
        levels.ravel(), values[:-1], np.diff(times),
        lambda x: _compensator_interp(params, path.config.eps, x),
        lambda b: np.sum(kernel_F(params, post - b[:, None])
                         - kernel_F(params, pre - b[:, None]), axis=1))
    return float(out[0]) if levels.ndim == 0 else out.reshape(levels.shape)


def tanaka_estimator(params: StableParams, path: PathSample, a: float,
                     t: float | None = None,
                     tolerance: float = math.inf) -> LocalTimeEstimate:
    """Kernel-endpoint estimator F(X_t - a) - F(X_0 - a) - M^a_t."""
    times, _ = _sliced(path, t)
    return LocalTimeEstimate(
        a=a, t=float(times[-1]), method="tanaka",
        value=float(tanaka_curve(params, path, [a], t)[0]),
        discretization={"eps": path.config.eps,
                        "n_steps": path.config.n_steps},
        tolerance=tolerance)


def tanaka_curve(params: StableParams, path: PathSample, a_grid,
                 t: float | None = None) -> np.ndarray:
    """Raw kernel-route estimates over a grid of levels (no floor checks)."""
    _, values = _sliced(path, t)
    a_grid = np.asarray(a_grid, dtype=float)
    return (kernel_F(params, values[-1] - a_grid)
            - kernel_F(params, values[0] - a_grid)
            - martingale_part(params, path, a_grid, t))


# ------------------------------------------------------ occupation formula

def default_a_grid(path: PathSample, n_points: int = 201) -> np.ndarray:
    """Uniform level grid covering the path's range with unit margin."""
    return np.linspace(path.values.min() - 1.0, path.values.max() + 1.0,
                       n_points)


def occupation_formula_check(path: PathSample, g, a_grid,
                             moll: MollifierSpec,
                             t: float | None = None,
                             estimator: str = "occupation",
                             params: StableParams | None = None) -> float:
    """Relative residual of int g(a) L^a_t da against int_0^t g(X_s) ds.

    The left side integrates the estimated local-time curve over the level
    grid (trapezoid); the right side is a time-Riemann sum along the path.
    The two share no numerics beyond the path itself.
    """
    times, values = _sliced(path, t)
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
        curve = tanaka_curve(params, path, a_grid, t=t)
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
