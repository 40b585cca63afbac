"""The explicit local-time kernel and its smoothings.

The central object is

    F(x) = D(alpha) (1 - beta sgn(x)) |x|^(alpha-1),   sgn(0) = -1,

whose compensated-jump generator vanishes away from the origin; convolved
with a test function phi it therefore inverts the generator,
L(F * phi) = phi. This module evaluates F and its derivatives (F' and F''
from one formula, ``_kernel_derivative``), the standard bump mollifiers
rho_n, kernel convolutions F * phi (by Gauss-Jacobi rules that absorb the
|.|^(alpha-1) cusp), and the compensator density

    G_eps(x) = int_{|h| > eps} {F(x+h) - F(x)} nu(dh),

which the martingale part of the local-time decomposition integrates along
paths. Since (x+u)^(alpha-1) u^(-1-alpha) has the primitive
-(1 + x/u)^alpha / (alpha x), G_eps is elementary. With z = x/eps, x > 0,
P = c+ ((1+z)^alpha - z^alpha) and Q = c- ((z-1)^alpha - z^alpha):

    z >= 1:     G = D (1-beta) (P + Q) / (alpha x)
    0 < z < 1:  G = D [(1-beta) c+ ((1+z)^alpha - 1 - z^alpha)
                       + c- ((1+beta)(1 - (1-z)^alpha) - (1-beta) z^alpha)]
                    / (alpha x)
    x = 0:      G = D [c+ (1-beta) + c- (1+beta)] / eps

The constant terms cancel for z >= 1 because beta (c+ + c-) = c+ - c-.
Negative x is the mirror image, G(x; c+, c-, beta) = G(-x; c-, c+, -beta).

Every coefficient that depends on the side of x -- F's D (1 -+ beta), the
signum, and G's mirrored c+-, beta -- comes from ``params._by_sign``, which
states the sgn(0) = -1 convention. Every power is taken by the ufunc
np.power, never by ``**`` on a numpy scalar (the C library's pow), so a
scalar x runs the loop an array does and F, F', F'' and G_eps return the
bits of that point inside an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .params import StableParams, _by_sign, _is_integer

__all__ = [
    "MollifierSpec",
    "standard_bump",
    "kernel_F",
    "kernel_F_prime",
    "kernel_F_second",
    "kernel_convolve",
    "compensator_density",
]


# --------------------------------------------------------------- mollifier

# int_{-1}^{1} exp(-1/(1-x^2)) dx in closed form; this evaluates to the
# correctly rounded 0.4439938161680794
_BUMP_NORMALIZATION = float(
    math.exp(-0.5) * (special.k1(0.5) - special.k0(0.5)))


def _bump(y, scale=1.0):
    """scale exp(-1/(1-y^2))/Z at each y, 0 where |y| >= 1 (or y is NaN).

    One pass over the whole array: outside (-1, 1) the exponent overflows
    or divides by zero harmlessly and those entries are then zeroed, which
    leaves the floats of evaluating the inside points alone.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.atleast_1d(y * y)
        np.subtract(1.0, out, out=out)
        np.divide(-1.0, out, out=out)
        np.exp(out, out=out)
        out /= _BUMP_NORMALIZATION
        out *= scale
    out[np.atleast_1d(~(np.abs(y) < 1.0))] = 0.0
    return out if y.ndim else float(out[0])


def standard_bump(x):
    """The unit bump exp(-1/(1-x^2))/Z on (-1, 1), zero outside; mass 1."""
    return _bump(x)


@dataclass(frozen=True)
class MollifierSpec:
    """rho_n(x) = n rho(nx): the unit bump squeezed to support [-1/n, 1/n]."""

    n: int

    def __post_init__(self):
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"mollifier index must be a positive integer, got {self.n!r}")

    @property
    def width(self) -> float:
        return 1.0 / self.n

    def __call__(self, x):
        # n x may overflow far out; the value there is 0 all the same
        with np.errstate(over="ignore"):
            return _bump(self.n * np.asarray(x, dtype=float), self.n)


# ------------------------------------------------------------------ kernel

def kernel_F(params: StableParams, x):
    """F(x) = D (1 - beta sgn(x)) |x|^(alpha-1); nonnegative, F(0) = 0."""
    x = np.asarray(x, dtype=float)
    # D (1 -+ beta) are the same doubles as D (1 - beta sgn(x))
    weight = _by_sign(x, params.big_d * (1.0 + params.beta),
                      params.big_d * (1.0 - params.beta))
    out = np.abs(np.atleast_1d(x))
    np.power(out, params.alpha - 1.0, out=out)
    out *= weight
    return out if x.ndim else float(out[0])


def _kernel_derivative(params: StableParams, x, k: int):
    """F^(k)(x) = (alpha-1)...(alpha-k) D (s - beta) s^(k-1) |x|^(alpha-1-k),
    s = sgn(x), for k = 1, 2; undefined at 0.

    The factors multiply left to right, and (alpha - 1) - k is alpha - 2
    and alpha - 3 exactly on (1, 2).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("F" + "'" * k + " has a non-removable singularity at 0")
    s = _by_sign(x, -1.0, 1.0)
    out = math.prod(params.alpha - j for j in range(1, k + 1)) * params.big_d \
        * (s - params.beta) * np.power(s, k - 1) \
        * np.power(np.abs(x), params.alpha - 1 - k)
    return out if out.ndim else float(out)


def kernel_F_prime(params: StableParams, x):
    """F'(x) = (alpha-1) D (sgn(x) - beta) |x|^(alpha-2), undefined at 0."""
    return _kernel_derivative(params, x, 1)


def kernel_F_second(params: StableParams, x):
    """F''(x) = (alpha-1)(alpha-2) D (sgn(x) - beta) sgn(x) |x|^(alpha-3)."""
    return _kernel_derivative(params, x, 2)


# ------------------------------------------------------------- convolution

# The package's one tile budget: every dense block of pairs, (points x
# nodes) here, (nodes x grid points) in the windowed generator and (levels
# x items) in localtime, is walked in tiles of at most this many pairs, bar
# one run of localtime._run_sums that is longer. 128 KiB of doubles stay in
# L2, and temporaries stay below glibc's 128 KiB mmap threshold, so they
# are not each served by a fresh mmap and faulted in page by page.
_PAIR_TILE = 16384


@lru_cache(maxsize=32)
def _jacobi_rule(alpha: float):
    # integrates (1+t)^(alpha-1) g(t) over [-1, 1] exactly for polynomial g
    # of degree below 96
    return special.roots_jacobi(48, 0.0, alpha - 1.0)


@lru_cache(maxsize=1)
def _legendre_rule():
    return np.polynomial.legendre.leggauss(64)


def _row_tiles(x, nodes, rows):
    """rows(chunk) over x in chunks of _PAIR_TILE // nodes points, joined:
    a chunk's points by a rule's ``nodes`` nodes fill one tile."""
    out = np.empty_like(x)
    step = max(1, _PAIR_TILE // nodes)
    for lo in range(0, len(x), step):
        out[lo:lo + step] = rows(x[lo:lo + step])
    return out


def kernel_convolve(params: StableParams, phi, x, radius: float):
    """(F * phi)(x) = int F(x - y) phi(y) dy for phi supported in [-radius, radius].

    The integrand's |x - y|^(alpha-1) cusp at y = x is absorbed exactly by
    Gauss-Jacobi rules on the two subintervals it separates; evaluation
    points outside the support use a plain Gauss-Legendre rule, with phi
    evaluated once at its nodes. Each rule walks the points in row tiles
    of at most _PAIR_TILE (point, node) pairs and reduces each row on its
    own, so a point's value does not depend on the others; ``phi`` must
    accept arrays.

    The result grows like 2 D |x|^(alpha-1) * (mass of phi) for large |x|,
    so it is *not* a decaying grid function; apply generators to it through
    the windowed route.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"support radius must be positive and finite, "
                         f"got {radius!r}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    a, big_d, beta = params.alpha, params.big_d, params.beta

    inside = np.abs(x) < radius
    if np.any(inside):
        t, w = _jacobi_rule(a)
        t1 = t + 1.0

        def jacobi_rows(xi):
            # y above x: x - y < 0, kernel weight D (1 + beta) (y - x)^(alpha-1)
            span = radius - xi
            y = xi[:, None] + span[:, None] * t1 / 2.0
            upper = (span / 2.0) ** a * (phi(y) * w).sum(axis=1)
            # y below x: kernel weight D (1 - beta) (x - y)^(alpha-1)
            span = radius + xi
            y = xi[:, None] - span[:, None] * t1 / 2.0
            lower = (span / 2.0) ** a * (phi(y) * w).sum(axis=1)
            return big_d * ((1.0 + beta) * upper + (1.0 - beta) * lower)

        out[inside] = _row_tiles(x[inside], len(t), jacobi_rows)

    if not np.all(inside):
        t, w = _legendre_rule()
        y = radius * t
        phi_y = phi(y)

        def legendre_rows(xo):
            dist = np.abs(xo[:, None] - y)
            side = 1.0 - beta * _by_sign(xo, -1.0, 1.0)[:, None]
            vals = side * dist ** (a - 1.0) * phi_y
            return big_d * radius * (vals * w).sum(axis=1)

        out[~inside] = _row_tiles(x[~inside], len(t), legendre_rows)

    return float(out[0]) if scalar else out


# -------------------------------------------------------------- compensator

def compensator_density(params: StableParams, x, eps: float):
    """G_eps(x): integral of F(x+h) - F(x) over jumps larger than eps.

    Exact, from the primitive -(1 + x/u)^alpha / (alpha x) of
    (x+u)^(alpha-1) u^(-1-alpha); see the module docstring. Vectorized over
    x: a scalar gives a float, an array an array.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    x = np.asarray(x, dtype=float)
    # x < 0 is the mirror image: swap the jump sides and flip beta
    c_away = _by_sign(x, params.c_minus, params.c_plus)
    c_toward = _by_sign(x, params.c_plus, params.c_minus)
    w_same = _by_sign(x, 1.0 + params.beta, 1.0 - params.beta)  # F on x's side
    w_other = 2.0 - w_same
    a = params.alpha
    z = np.abs(x) / eps
    with np.errstate(divide="ignore", invalid="ignore"):
        # |x| >= eps: (1 + 1/z)^a - 1 and (1 - 1/z)^a - 1, scaled by z^a;
        # at z = 1 the second is expm1(-inf) = -1 exactly
        zf = np.maximum(z, 1.0)
        outer = w_same * np.power(zf, a) * (
            c_away * np.expm1(a * np.log1p(1.0 / zf))
            + c_toward * np.expm1(a * np.log1p(-1.0 / zf)))
        zn = np.minimum(z, 1.0)
        inner = w_same * c_away * (np.expm1(a * np.log1p(zn)) - np.power(zn, a)) \
            - c_toward * (w_other * np.expm1(a * np.log1p(-zn))
                          + w_same * np.power(zn, a))
        g = params.big_d * np.where(z >= 1.0, outer, inner) / (a * np.abs(x))
    g0 = params.big_d * (params.c_plus * (1.0 - params.beta)
                         + params.c_minus * (1.0 + params.beta)) / eps
    out = np.where(x == 0.0, g0, g)
    return out if out.ndim else float(out)
