"""Fourier-side machinery for strictly stable processes.

Provides the Levy symbol eta(u) = -d|u|^alpha (1 - i beta sgn(u)
tan(pi alpha/2)), the characteristic function exp(t eta), transition
densities by FFT inversion, the generator as a Fourier multiplier, the
negative-moment constant S(alpha, gamma), and the partial existence
integral of Re(1/(1 - eta)), in closed form through the Gauss
hypergeometric function, and its limit for alpha > 1. The direct
compensated-jump quadrature that acceptance criterion 2 checks the
multiplier against is an oracle of the tests, in
``tests/quadrature_oracle.py``.

Grids are uniform, symmetric about 0, with a power-of-two point count so
the transform pairing x_j = -L + j*h  <->  u_k = 2*pi*fftfreq(n, h) is
exact. A function sampled on a grid is a plain float array over
``grid.points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev

from .kernel import _legendre_rule, _row_tiles
from .params import (
    StableParams,
    _is_integer,
    nu_density,
    symbol_coefficients,
)


class ResolutionError(ValueError):
    """Grid too coarse (or horizon too short) for a requested inversion."""


class NonDecayingInputError(ValueError):
    """Input samples do not vanish at the grid boundary where required."""


class ToleranceError(RuntimeError):
    """A quadrature or consistency check missed its accuracy target."""


_MIN_POINTS = 256


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid x_j = -L + j * spacing, j = 0..n-1."""

    half_width: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if not _is_integer(n) or n < _MIN_POINTS or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= {_MIN_POINTS}, got {n}")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("half_width must give a positive finite grid spacing")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @cached_property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n_points)

    @cached_property
    def freqs(self) -> np.ndarray:
        """Angular frequencies paired with :attr:`points` under the DFT."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


def levy_symbol(params: StableParams, u):
    """eta(u) = -d |u|^alpha (1 - i beta sgn(u) tan(pi alpha / 2)).

    Vectorized over u; eta(0) = 0 and Re eta <= 0 everywhere. Where d
    |u|^alpha passes the largest double, eta is -inf in its real part and
    keeps the sign of its imaginary part, 0 for beta = 0.
    """
    u = np.asarray(u, dtype=float)
    skew = 1.0 - 1j * params.beta * np.sign(u) * params.tan_half_pi_alpha
    with np.errstate(over="ignore", invalid="ignore"):
        mag = params.d * np.power(np.abs(u), params.alpha)
        out = -mag * skew
    # a real skew would give an infinite eta the imaginary part inf * 0
    out = np.where(np.isinf(mag) & (skew.imag == 0.0), -np.inf, out)
    return out if out.ndim else complex(out)


def char_function(params: StableParams, u, t: float):
    """E[exp(i u X_t)] = exp(t eta(u)); modulus exp(-d t |u|^alpha).

    Where t eta(u) is not finite, it is eta(t^(1/alpha) u) by
    self-similarity, so t = 0 gives 1; where that is not finite either,
    the modulus is below the least double and the value is 0.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t!r}")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"frequency u must be finite, got {u!r}")
    v = np.atleast_1d(np.asarray(u, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = t * levy_symbol(params, v)
        far = ~np.isfinite(exponent)
        exponent[far] = levy_symbol(params, t ** (1.0 / params.alpha)
                                    * v[far])
        out = np.exp(exponent)
    out[~np.isfinite(exponent)] = 0.0
    return out if np.ndim(u) else complex(out[0])


_DENSITY_TAIL_CUTOFF = 1e-12


def transition_density(params: StableParams, t: float, grid: Grid) -> np.ndarray:
    """Density of X_t at ``grid.points`` by trapezoid inversion of the
    characteristic function.

    The frequency grid must reach far enough into the Gaussian-like decay of
    |exp(t eta)| that the discarded tail is below 1e-12, and the symbol must
    stay finite at its cutoff pi/spacing; otherwise a
    :class:`ResolutionError` explains which knob to turn. Spatial
    periodization (period 2L) is the remaining, unchecked, error source;
    pick L generously relative to the t^{1/alpha} scale.

    The images add mass, so the value at 0 reads high. Against the exact
    p_t(0) = Gamma(1 + 1/alpha) Re[(k d)^(-1/alpha)] / pi t^(-1/alpha),
    k = 1 - i beta tan(pi alpha / 2), a [-400, 400] grid of 2^17 points
    at t 0.5 and 1 (symmetric, (3, 1) and both one-sided triplets) reads
    high by at most 6.0e-4 relative at alpha 1.1, 2.6e-5 at 1.3, 4.1e-6
    at 1.5 and 5.3e-7 at 1.8. On the command line's default [-80, 80]
    grid the excess reaches 1.7e-2 at alpha 1.1, (3, 1), t = 1.
    """
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    u_max = np.pi / grid.spacing
    # the tail exponent d t u_max^alpha in logs: the power overflows on
    # grids finer than doubles resolve
    log_rate = math.log(params.d) + math.log(t) + params.alpha * math.log(u_max)
    if not log_rate > math.log(-math.log(_DENSITY_TAIL_CUTOFF)):
        raise ResolutionError(
            f"characteristic function is {math.exp(-math.exp(log_rate)):.2e} "
            f"at the frequency cutoff {u_max:.3g} (needs < "
            f"{_DENSITY_TAIL_CUTOFF:.0e}); increase n_points or "
            f"decrease half_width/t^(1/alpha)")
    if not np.isfinite(levy_symbol(params, u_max)):
        raise ResolutionError(
            f"the symbol overflows at the frequency cutoff {u_max:.3g}; "
            f"decrease n_points or increase half_width")
    phi = char_function(params, grid.freqs, t)
    n, h = grid.n_points, grid.spacing
    # the points start at -L = -n h / 2, so the phase e^{-i u_k L} is
    # (-1)^k, which by the shift theorem moves the DFT by n / 2
    return (np.fft.fftshift(np.fft.fft(phi)) / (n * h)).real


_DECAY_RTOL = 1e-8


def generator_apply(params: StableParams, values, grid: Grid) -> np.ndarray:
    """Apply the generator as the Fourier multiplier eta(u) to finite
    samples over ``grid.points``.

    Valid for real samples that decay to zero at both grid ends (checked
    against 1e-8 of the peak); slowly growing inputs such as the kernel
    convolutions F*phi must go through :func:`generator_apply_windowed`
    instead. The continuous transform pair's spacing and alternating signs
    cancel exactly, so the multiplier acts on the plain DFT.
    """
    vals = np.asarray(values)
    if vals.shape != (grid.n_points,):
        raise ValueError(
            f"values shape {vals.shape} does not match grid ({grid.n_points},)")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values contain NaN or Inf")
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        return np.zeros_like(vals, dtype=float)
    edge = max(abs(vals[0]), abs(vals[-1]))
    if edge > _DECAY_RTOL * scale:
        raise NonDecayingInputError(
            f"boundary magnitude {edge:.3e} exceeds {_DECAY_RTOL:.0e} of the "
            f"peak {scale:.3e}; enlarge the grid or window the input")
    out = np.fft.ifft(levy_symbol(params, grid.freqs) * np.fft.fft(vals))
    residue = np.max(np.abs(out.imag))
    out_scale = max(np.max(np.abs(out.real)), 1e-300)
    if residue > 1e-8 * out_scale:
        raise ToleranceError(
            f"imaginary residue {residue:.3e} after the multiplier is too "
            f"large relative to the result scale {out_scale:.3e}")
    return out.real


def smoothstep_window(x, r_in: float, r_out: float):
    """C^7 plateau window: 1 on |x| <= r_in, 0 beyond r_out."""
    if not 0.0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    t = (np.abs(np.asarray(x, dtype=float)) - r_in) / (r_out - r_in)
    t = np.clip(t, 0.0, 1.0)
    # 15th-order smoothstep: seven vanishing derivatives at both ends
    s = t**8 * (6435.0 + t * (-40040.0 + t * (108108.0 + t * (-163800.0
        + t * (150150.0 + t * (-83160.0 + t * (25740.0 - 3432.0 * t)))))))
    return 1.0 - s


_FAR_ORDER = 64
_FAR_ATOL, _FAR_RTOL = 1e-12, 1e-10


def _far_field(params: StableParams, g, x, r_in: float, r_out: float):
    """int g(y) (1 - W(y)) nu(y - x) dy over |y| >= r_in, at each x of an
    array with |x| < r_in, W the smoothstep window on (r_in, r_out).

    Each side splits into the window band r_in <= |y| <= r_out and the tail
    |y| >= r_out, mapped to s = r_out/|y| in (0, 1]. All four pieces take a
    fixed Gauss-Legendre rule of order 64, checked piece by piece against
    its order-32 sibling; ``g`` is called once, on the nodes of both rules.
    Raises :class:`ToleranceError` when the two rules differ by more than
    max(1e-12, 1e-10 * the largest piece).
    """
    nodes, weights = [], []
    for order in (_FAR_ORDER, _FAR_ORDER // 2):
        t, w = _legendre_rule(order)
        s = 0.5 * (t + 1.0)
        band = r_in + (r_out - r_in) * s
        band_w = 0.5 * (r_out - r_in) * w \
            * (1.0 - smoothstep_window(band, r_in, r_out))
        tail, tail_w = r_out / s, 0.5 * r_out * w / s**2
        nodes += [band, tail, -band, -tail]
        weights += [band_w, tail_w, band_w, tail_w]
    y = np.concatenate(nodes)
    gy = np.asarray(g(y), dtype=float)
    if not np.all(np.isfinite(gy)):
        raise ValueError("g produced non-finite values in the far field")
    terms = gy * np.concatenate(weights) * nu_density(params, y - x[:, None])
    starts = np.cumsum([0] + [len(n) for n in nodes[:-1]])
    pieces = np.add.reduceat(terms, starts, axis=1).reshape(len(x), 2, 4)
    fine, coarse = pieces[:, 0], pieces[:, 1]
    gap = float(np.max(np.abs(fine - coarse)))
    bar = max(_FAR_ATOL, _FAR_RTOL * float(np.max(np.abs(fine))))
    if gap > bar:
        raise ToleranceError(
            f"far-field rules of order {_FAR_ORDER} and {_FAR_ORDER // 2} "
            f"differ by {gap:.3e}, above {bar:.3e}")
    return fine.sum(axis=1)


def generator_apply_windowed(params: StableParams, g, grid: Grid):
    """Generator of a slowly growing function, reported on a central window.

    Splits g = g*W + g*(1-W) with a smooth plateau window W that is 1 on
    |x| <= r_in = 0.7 L and 0 beyond r_out = 0.95 L, L the grid's half
    width. The windowed part decays and goes through the Fourier
    multiplier, with the spurious contributions of its 2L-periodic images
    subtracted by direct quadrature over 16 images a side (the rest summed
    to leading order; its error budget is below), in row tiles of
    (node, grid point) pairs from ``kernel._row_tiles``. The far part never
    touches the report region |x| <= 0.25 L, so its generator there is the
    plain (uncompensated) integral of g(y)(1-W(y)) nu(y-x) dy, evaluated at
    33 Chebyshev nodes and interpolated -- the integrand is analytic in x
    at distance r_in - 0.25 L from its support. That integral takes fixed
    Gauss-Legendre rules over the window bands and over the tails in
    s = r_out/|y|, each checked against a rule of half its order.

    ``g`` must accept arrays and be defined well beyond the grid: the
    far field integrates it against the jump-measure tail out to infinity.
    As g nu ~ |y|^(s-2) for g growing like |x|^(alpha-1+s), the tail
    converges only for s < 1, i.e. growth below |x|^alpha. The tail rule is
    exact to rounding when g(y) |y|^(1-alpha) is smooth in 1/|y|, as for
    the kernel convolutions F*phi (s = 0) and for fast-decaying g. A far
    field whose two rules differ by more than max(1e-12, 1e-10 * its
    largest piece) raises :class:`ToleranceError` rather than return a
    value. Returns the grid points with |x| <= 0.25 L and the generator
    values there.

    Images past the 16th are summed with every y put at x, an error first
    order in u = (y - x)/2L. Against the exact sum over all images, gW
    integrated against (2L)^(-alpha-1) [c_plus zeta(alpha+1, 1+u) +
    c_minus zeta(alpha+1, 1-u)] (Hurwitz zeta), the image term at the 33
    nodes errs by up to 5.8e-7 at (alpha, beta) = (1.3, 1), 1.9e-7 at
    (1.5, 0.5), 7.4e-8 at (1.8, -1), 2.3e-8 at (1.2, 0) and 1.5e-9 at
    (1.5, 0), for the unit bump's F * phi on a [-40, 40] grid of 2^14.
    """
    L = grid.half_width
    r_in, r_out, report_radius = 0.70 * L, 0.95 * L, 0.25 * L
    n_cheb, n_images = 33, 16

    x_all = grid.points
    g_vals = np.asarray(g(x_all), dtype=float)
    if not np.all(np.isfinite(g_vals)):
        raise ValueError("g produced non-finite values on the grid")
    w_vals = smoothstep_window(x_all, r_in, r_out)
    gw = g_vals * w_vals

    mask = np.abs(x_all) <= report_radius
    x_rep = x_all[mask]
    total = generator_apply(params, gw, grid)[mask]

    # The DFT multiplier actually computed the generator of the periodic
    # extension sum_k gW(. - 2Lk); the k != 0 image contributions reduce to
    # plain integrals of gW against the far nu-tail, which decay only like
    # k^(-alpha-1), so those past n_images are summed to leading order.
    gw_mass = float(np.trapezoid(gw, dx=grid.spacing))
    a = params.alpha
    image_remainder = gw_mass * (params.c_plus + params.c_minus) \
        * (2.0 * L) ** (-a - 1.0) * (n_images + 0.5) ** (-a) / a

    # Both corrections are analytic in x at distance >= r_in - report_radius
    # from their supports, so a Chebyshev fit of a few expensive evaluations
    # carries them to every report point at machine accuracy. The far
    # field's compensation terms vanish on the report region, where g(1-W)
    # is identically zero.
    nodes = np.cos(np.pi * np.arange(n_cheb) / (n_cheb - 1))
    x_nodes = report_radius * nodes
    # the image term at the nodes, one array pass per image shift over a
    # row tile of nodes by the whole grid (_row_tiles: one node a tile on
    # a grid of 16384 points or more). Each row is reduced on its own, so
    # the tile height moves no value. |y - x| <= 1.25 L < 2 L for every
    # grid y and report x, so each jump y + shift - x has the sign of the
    # shift: one coefficient
    images = np.full(n_cheb, image_remainder)
    for rows in _row_tiles(n_cheb, len(x_all)):
        x = x_nodes[rows, None]
        for k in range(1, n_images + 1):
            for shift, coef in ((2.0 * L * k, params.c_plus),
                                (-2.0 * L * k, params.c_minus)):
                nu = coef * np.abs(x_all + shift - x) ** (-a - 1.0)
                images[rows] += np.trapezoid(gw * nu, dx=grid.spacing)
    node_vals = _far_field(params, g, x_nodes, r_in, r_out) - images
    coeffs = chebyshev.chebfit(nodes, node_vals, n_cheb - 1)
    total += chebyshev.chebval(x_rep / report_radius, coeffs)
    return x_rep, total


def negative_moment_bound(params: StableParams, gamma: float, t: float) -> float:
    """The bound S(alpha, gamma) t^{-gamma/alpha} on E|X_t - x|^{-gamma}.

    S = Gamma(1-gamma) cos(pi (gamma-1)/2) / pi * int |v|^{gamma-1}
    e^{-d |v|^alpha} dv, and the integral has the closed form
    (2/alpha) d^{-gamma/alpha} Gamma(gamma/alpha).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    a, d = params.alpha, params.d
    integral = (2.0 / a) * d ** (-gamma / a) * math.gamma(gamma / a)
    s_const = math.gamma(1.0 - gamma) * math.cos(math.pi * (gamma - 1.0) / 2.0) \
        / math.pi * integral
    return s_const * t ** (-gamma / a)


def existence_integral(alpha: float, u_max: float,
                       c_plus: float = 1.0, c_minus: float = 1.0) -> float:
    """Partial integral of Re(1/(1 - eta(u))) over [-u_max, u_max].

    Converges as u_max grows iff alpha > 1 (the integrand tail decays like
    |u|^-alpha). ``alpha`` may lie in (0, 1) or (1, 2), so that the
    alpha < 1 divergence can be demonstrated; the symbol's scale and skew
    come from the jump intensities ``c_plus`` and ``c_minus``.

    With 1 - eta(u) = 1 + k d u^alpha on u > 0, k = 1 - i beta
    tan(pi alpha / 2), and the negative half the complex conjugate, the
    partial integral is exactly

        2 Re[U 2F1(1, 1/alpha; 1 + 1/alpha; -k d U^alpha)],  U = u_max.

    Raises ValueError when that 2F1 argument is not a finite complex
    number, which near alpha = 1 with skew can happen while d U^alpha
    itself is finite, and when the partial is not finite: 2 U overflows,
    or scipy's 2F1 returns NaN, as it does at alpha = 0.01 (1/alpha an
    integer past 99).

    The partial carries scipy's complex 2F1 error, which grows where
    1/alpha lies within ~1e-9 of an integer n in 2..16 without equalling
    it: at alpha = (1/3)(1 + 1e-9), c_plus = 3, c_minus = 1, u_max = 1e-3
    it is off by 1.6e-7 relative against a 30-digit reference, while exact
    alpha = 1/n agrees to 3.3e-15. That is alpha < 1 only; alpha in (1, 2)
    has 1/alpha in (0.5, 1) and never meets it.
    """
    if not u_max > 0.0:
        raise ValueError("u_max must be positive")
    beta, d = symbol_coefficients(alpha, c_plus, c_minus)
    try:
        z = -(1.0 - 1j * beta * math.tan(math.pi * alpha / 2.0)) \
            * d * u_max ** alpha
    except OverflowError:
        z = math.inf
    if not np.isfinite(z):
        raise ValueError(f"the 2F1 argument -k d u_max^alpha overflows at "
                         f"u_max={u_max:g} for alpha={alpha:g}")
    from scipy.special import hyp2f1  # not at import: it loads numpy.f2py
    b = 1.0 / alpha
    partial = float(2.0 * u_max * hyp2f1(1.0, b, 1.0 + b, z).real)
    if not math.isfinite(partial):
        raise ValueError(f"the partial integral is {partial} at "
                         f"u_max={u_max:g} for alpha={alpha:g}")
    return partial


def _root_scale(alpha: float, c_plus: float, c_minus: float) -> float:
    """Re[(k d)^(-1/alpha)], k = 1 - i beta tan(pi alpha / 2): where the
    symbol's scale and skew enter both the existence integral's limit and
    the stable density at 0, p_1(0) = Gamma(1 + 1/alpha) Re[(k d)^(-1/alpha)]
    / pi."""
    beta, d = symbol_coefficients(alpha, c_plus, c_minus)
    k = complex(1.0, -beta * math.tan(math.pi * alpha / 2.0))
    return ((k * d) ** (-1.0 / alpha)).real


def existence_limit(alpha: float, c_plus: float = 1.0,
                    c_minus: float = 1.0) -> float:
    """The limit of ``existence_integral`` as u_max grows, for alpha in (1, 2).

    Each half-line gives int_0^inf du / (1 + k d u^alpha) = (k d)^(-1/alpha)
    pi / (alpha sin(pi / alpha)), so the whole line gives

        2 pi / (alpha sin(pi / alpha)) Re[(k d)^(-1/alpha)].

    The partial at U falls short of it by 2 U^(1-alpha) / (d (alpha - 1)
    (1 + beta^2 tan^2(pi alpha / 2))) to leading order.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"the existence integral converges only for "
                         f"alpha in (1, 2), got {alpha!r}")
    return 2.0 * math.pi / (alpha * math.sin(math.pi / alpha)) \
        * _root_scale(alpha, c_plus, c_minus)


__all__ = [
    "Grid",
    "ResolutionError",
    "NonDecayingInputError",
    "ToleranceError",
    "levy_symbol",
    "char_function",
    "transition_density",
    "generator_apply",
    "generator_apply_windowed",
    "smoothstep_window",
    "negative_moment_bound",
    "existence_integral",
    "existence_limit",
]
