"""Fourier-side machinery for strictly stable processes.

Provides the Levy symbol eta(u) = -d|u|^alpha (1 - i beta sgn(u)
tan(pi alpha/2)), the characteristic function exp(t eta), transition
densities by FFT inversion, the generator both as a Fourier multiplier and
as a direct compensated-jump quadrature (each serving as the other's
oracle), the negative-moment constant S(alpha, gamma), and the partial
existence integral of Re(1/(1 - eta)).

Grids are uniform, symmetric about 0, with a power-of-two point count so
the transform pairing x_j = -L + j*h  <->  u_k = 2*pi*fftfreq(n, h) is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev
from scipy import integrate

from .params import (
    StableParams,
    nu_density,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
    stability_constant,
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
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")
        n = self.n_points
        if n < _MIN_POINTS or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= {_MIN_POINTS}, got {n}")

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


@dataclass
class GridFunction:
    """Samples of a function on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({self.grid.n_points},)")
        if not np.all(np.isfinite(values)):
            raise ValueError("values contain NaN or Inf")
        self.values = values

    def __len__(self) -> int:
        return self.grid.n_points

    def to_csv(self, path) -> None:
        """Two-column x,value file with the grid described in a comment."""
        if np.iscomplexobj(self.values):
            raise ValueError("CSV export is defined for real-valued samples only")
        header = (f"grid: half_width={self.grid.half_width!r} "
                  f"n_points={self.grid.n_points}\nx,value")
        data = np.column_stack([self.grid.points, self.values])
        np.savetxt(path, data, delimiter=",", header=header, fmt="%.17g")

    def to_json_dict(self) -> dict:
        out = {"grid": {"half_width": self.grid.half_width,
                        "n_points": self.grid.n_points}}
        if np.iscomplexobj(self.values):
            out["values_re"] = self.values.real.tolist()
            out["values_im"] = self.values.imag.tolist()
        else:
            out["values"] = self.values.tolist()
        return out


def _alternating_signs(n: int) -> np.ndarray:
    # e^{+- i u_k L} for L = n h / 2 is exactly (-1)^k in DFT ordering
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def forward_transform(f: GridFunction) -> np.ndarray:
    """Continuous-convention Fourier coefficients fhat(u_k) = int f e^{-iux} dx."""
    grid = f.grid
    return grid.spacing * _alternating_signs(grid.n_points) * np.fft.fft(f.values)


def inverse_transform(grid: Grid, fhat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_transform`; returns complex samples."""
    fhat = np.asarray(fhat)
    if fhat.shape != (grid.n_points,):
        raise ValueError("coefficient array does not match the grid")
    return np.fft.ifft(fhat * _alternating_signs(grid.n_points)) / grid.spacing


def levy_symbol(params: StableParams, u):
    """eta(u) = -d |u|^alpha (1 - i beta sgn(u) tan(pi alpha / 2)).

    Vectorized over u; eta(0) = 0 and Re eta <= 0 everywhere.
    """
    u = np.asarray(u, dtype=float)
    mag = params.d * np.abs(u) ** params.alpha
    out = -mag * (1.0 - 1j * params.beta * np.sign(u) * params.tan_half_pi_alpha)
    return out if out.ndim else complex(out)


def char_function(params: StableParams, u, t: float):
    """E[exp(i u X_t)] = exp(t eta(u)); modulus exp(-d t |u|^alpha)."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    out = np.exp(t * np.asarray(levy_symbol(params, u)))
    return out if out.ndim else complex(out)


_DENSITY_TAIL_CUTOFF = 1e-12


def transition_density(params: StableParams, t: float, grid: Grid) -> GridFunction:
    """Density of X_t by trapezoid inversion of the characteristic function.

    The frequency grid must reach far enough into the Gaussian-like decay of
    |exp(t eta)| that the discarded tail is below 1e-12; otherwise a
    :class:`ResolutionError` explains which knob to turn. Spatial
    periodization (period 2L) is the remaining, unchecked, error source;
    pick L generously relative to the t^{1/alpha} scale.
    """
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    u_max = np.pi / grid.spacing
    tail = math.exp(-params.d * t * u_max ** params.alpha)
    if not tail < _DENSITY_TAIL_CUTOFF:
        raise ResolutionError(
            f"characteristic function is {tail:.2e} at the frequency cutoff "
            f"{u_max:.3g} (needs < {_DENSITY_TAIL_CUTOFF:.0e}); increase n_points "
            f"or half_width*t^(1/alpha)")
    phi = char_function(params, grid.freqs, t)
    n, h = grid.n_points, grid.spacing
    values = np.fft.fft(phi * _alternating_signs(n)) / (n * h)
    return GridFunction(grid, values.real)


_DECAY_RTOL = 1e-8


def generator_apply(params: StableParams, f: GridFunction) -> GridFunction:
    """Apply the generator as the Fourier multiplier eta(u).

    Valid for samples that decay to zero at both grid ends (checked against
    1e-8 of the peak); slowly growing inputs such as the kernel
    convolutions F*phi must go through :func:`generator_apply_windowed`
    instead.
    """
    vals = f.values
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        return GridFunction(f.grid, np.zeros_like(vals, dtype=float))
    edge = max(abs(vals[0]), abs(vals[-1]))
    if edge > _DECAY_RTOL * scale:
        raise NonDecayingInputError(
            f"boundary magnitude {edge:.3e} exceeds {_DECAY_RTOL:.0e} of the "
            f"peak {scale:.3e}; enlarge the grid or window the input")
    out = inverse_transform(f.grid, levy_symbol(params, f.grid.freqs)
                            * forward_transform(f))
    if np.iscomplexobj(vals):
        return GridFunction(f.grid, out)
    residue = np.max(np.abs(out.imag))
    out_scale = max(np.max(np.abs(out.real)), 1e-300)
    if residue > 1e-8 * out_scale:
        raise ToleranceError(
            f"imaginary residue {residue:.3e} after the multiplier is too "
            f"large relative to the result scale {out_scale:.3e}")
    return GridFunction(f.grid, out.real)


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


def generator_apply_windowed(params: StableParams, g, grid: Grid,
                             r_in: float | None = None,
                             r_out: float | None = None,
                             report_radius: float | None = None,
                             n_cheb: int = 33,
                             n_images: int = 16):
    """Generator of a slowly growing function, reported on a central window.

    Splits g = g*W + g*(1-W) with a smooth plateau window W. The windowed
    part decays and goes through the Fourier multiplier, with the spurious
    contributions of its 2L-periodic images subtracted by direct
    quadrature. The far part never touches the report region, so its
    generator there is the plain (uncompensated) integral of
    g(y)(1-W(y)) nu(y-x) dy, evaluated by adaptive quadrature at Chebyshev
    nodes and interpolated -- the integrand is analytic in x at distance
    r_in - report_radius from its support.

    Parameters
    ----------
    g : callable
        Vectorized evaluation of the target function; must be defined well
        beyond the grid (the far-field quadrature integrates it against the
        jump-measure tail out to infinity). Growth up to |x|^(alpha-1+s),
        s < alpha, keeps that tail integrable; practically this is for
        kernel convolutions growing like |x|^(alpha-1).
    grid : Grid
        FFT grid; also fixes the window defaults r_in = 0.7 L,
        r_out = 0.95 L, report_radius = 0.25 L.

    Returns
    -------
    x, vals : ndarray
        Grid points with |x| <= report_radius and the generator values
        there.
    """
    L = grid.half_width
    r_in = 0.70 * L if r_in is None else r_in
    r_out = 0.95 * L if r_out is None else r_out
    report_radius = 0.25 * L if report_radius is None else report_radius
    if not 0.0 < report_radius < r_in < r_out <= L:
        raise ValueError("need 0 < report_radius < r_in < r_out <= half_width")

    x_all = grid.points
    g_vals = np.asarray(g(x_all), dtype=float)
    if not np.all(np.isfinite(g_vals)):
        raise ValueError("g produced non-finite values on the grid")
    w_vals = smoothstep_window(x_all, r_in, r_out)
    gw = GridFunction(grid, g_vals * w_vals)

    multiplier_part = generator_apply(params, gw)
    mask = np.abs(x_all) <= report_radius
    x_rep = x_all[mask]
    total = multiplier_part.values[mask].copy()

    # The DFT multiplier actually computed the generator of the periodic
    # extension sum_k gW(. - 2Lk); the k != 0 image contributions reduce to
    # plain integrals of gW against the far nu-tail. Images beyond n_images
    # are summed analytically to leading order -- the series only decays
    # like k^(-alpha-1).
    gw_mass = float(np.trapezoid(gw.values, dx=grid.spacing))
    a = params.alpha
    image_remainder = gw_mass * (params.c_plus + params.c_minus) \
        * (2.0 * L) ** (-a - 1.0) * (n_images + 0.5) ** (-a) / a

    def image_term(x: float) -> float:
        acc = image_remainder
        for k in range(1, n_images + 1):
            for shift in (2.0 * L * k, -2.0 * L * k):
                acc += np.trapezoid(gw.values
                                    * nu_density(params, x_all + shift - x),
                                    dx=grid.spacing)
        return acc

    # Far field: int g(y)(1 - W(y)) nu(y - x) dy over |y| >= r_in; the
    # compensation terms vanish on the report region, where g(1-W) is
    # identically zero.
    def far_field(x: float) -> float:
        def integrand(y):
            return g(y) * (1.0 - smoothstep_window(y, r_in, r_out)) \
                * nu_density(params, y - x)

        acc = 0.0
        for a, b in ((r_in, r_out), (r_out, np.inf),
                     (-r_out, -r_in), (-np.inf, -r_out)):
            val, _ = integrate.quad(integrand, a, b, epsabs=1e-12,
                                    epsrel=1e-10, limit=400)
            acc += val
        return acc

    # Both corrections are analytic in x at distance >= r_in - report_radius
    # from their supports, so a Chebyshev fit of a few expensive evaluations
    # carries them to every report point at machine accuracy.
    nodes = np.cos(np.pi * np.arange(n_cheb) / (n_cheb - 1))
    node_vals = np.array([far_field(report_radius * s)
                          - image_term(report_radius * s) for s in nodes])
    coeffs = chebyshev.chebfit(nodes, node_vals, n_cheb - 1)
    total += chebyshev.chebval(x_rep / report_radius, coeffs)
    return x_rep, total


def _central_diff(f, x: float, order: int) -> float:
    base = max(1.0, abs(x))
    if order == 1:
        step = base * 6.0e-6
        return (f(x + step) - f(x - step)) / (2.0 * step)
    step = base * 1.2e-4
    return (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2


def generator_quadrature(params: StableParams, f, x: float,
                         h_min: float = 1e-4, h_max: float = 1e3,
                         fprime=None, fsecond=None,
                         tol: float = 1e-8, full_output: bool = False):
    """Pointwise generator by direct quadrature of the compensated jumps.

    Integrates {f(x+h) - f(x) - f'(x) h} against the jump density over
    h_min <= |h| <= h_max in per-decade panels (adaptive quadrature inside
    each) and closes the inner hole with the Taylor term f''(x)/2 times the
    small-jump variance. Nothing is added for |h| > h_max -- a linear f
    must give exactly zero -- but the compensated tail there is *reported*
    through the mean-value bound 2 sup|f| nu-mass + |f'(x)| nu-absmean, so
    callers chasing tight targets can tell when to raise h_max.

    Raises :class:`ToleranceError` when the summed quadrature error
    estimates exceed ``tol``. With ``full_output=True`` returns
    ``(value, info)`` where info carries the error estimate and the
    truncation bound.

    The defaults balance two opposing error floors: the inner closure's
    next Taylor term scales like (c_plus - c_minus) h_min^(3-alpha), while
    below that the floating-point noise of the compensated difference,
    amplified by nu(h) ~ h^(-alpha-1), takes over the value and the error
    estimates.
    """
    if not 0.0 < h_min < h_max:
        raise ValueError("need 0 < h_min < h_max")
    fx = f(x)
    fp = fprime(x) if fprime is not None else _central_diff(f, x, 1)
    fpp = fsecond(x) if fsecond is not None else _central_diff(f, x, 2)

    def compensated(h):
        return (f(x + h) - fx - fp * h) * nu_density(params, h)

    edges = np.geomspace(h_min, h_max, int(math.ceil(math.log10(h_max / h_min))) + 1)
    closure = 0.5 * fpp * small_jump_variance(params, h_min)
    value = closure
    err_total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for a, b in ((lo, hi), (-hi, -lo)):
            val, err = integrate.quad(compensated, a, b, epsabs=tol / 50.0,
                                      epsrel=1e-11, limit=500)
            value += val
            err_total += err
    if err_total > tol:
        raise ToleranceError(
            f"quadrature error estimate {err_total:.3e} exceeds tol {tol:.0e}")
    if not full_output:
        return value
    probe = x + h_max * np.concatenate([2.0 ** np.arange(0, 20),
                                        -(2.0 ** np.arange(0, 20))])
    f_sup = max(float(np.max(np.abs([f(p) for p in probe]))), abs(fx))
    absmean = (params.c_plus + params.c_minus) * h_max ** (1.0 - params.alpha) \
        / (params.alpha - 1.0)
    info = {
        "quad_error": err_total,
        "truncation_bound": 2.0 * f_sup * nu_tail_mass(params, h_max)
        + abs(fp) * absmean,
        "inner_closure": closure,
    }
    return value, info


def negative_moment_bound(params: StableParams, gamma: float, t: float) -> float:
    """The bound S(alpha, gamma) t^{-gamma/alpha} on E|X_t - x|^{-gamma}.

    S = Gamma(1-gamma) cos(pi (gamma-1)/2) / pi * int |v|^{gamma-1}
    e^{-d |v|^alpha} dv, with the integral computed by quadrature (the
    v < 1 piece desingularized by the substitution v = w^{1/gamma}) and
    cross-checked against its closed form (2/alpha) d^{-gamma/alpha}
    Gamma(gamma/alpha); disagreement beyond 1e-8 relative raises
    :class:`ToleranceError`.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    a, d = params.alpha, params.d

    # int_0^1 v^{gamma-1} e^{-d v^a} dv = 1/gamma + int_0^1 v^{gamma-1}
    # expm1(-d v^a) dv; the rewritten integrand behaves like v^{gamma+a-1}
    # near 0, so it stays quadrable uniformly in gamma
    inner, _ = integrate.quad(
        lambda v: v ** (gamma - 1.0) * math.expm1(-d * v ** a),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    inner += 1.0 / gamma
    outer, _ = integrate.quad(lambda v: v ** (gamma - 1.0) * math.exp(-d * v ** a),
                              1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    integral = 2.0 * (inner + outer)
    closed = (2.0 / a) * d ** (-gamma / a) * math.gamma(gamma / a)
    if abs(integral - closed) > 1e-8 * abs(closed):
        raise ToleranceError(
            f"quadrature {integral!r} and closed form {closed!r} of the "
            f"moment integral disagree beyond 1e-8 relative")
    s_const = math.gamma(1.0 - gamma) * math.cos(math.pi * (gamma - 1.0) / 2.0) \
        / math.pi * integral
    return s_const * t ** (-gamma / a)


def existence_integral(params_or_alpha, u_max: float,
                       c_plus: float = 1.0, c_minus: float = 1.0) -> float:
    """Partial integral of Re(1/(1 - eta(u))) over [-u_max, u_max].

    Converges as u_max grows iff alpha > 1 (the integrand tail decays like
    |u|^-alpha); to let the alpha < 1 divergence be demonstrated, a bare
    index in (0, 1) or (1, 2) with jump intensities ``c_plus``/``c_minus``
    is accepted in place of a :class:`StableParams`.
    """
    if not u_max > 0.0:
        raise ValueError("u_max must be positive")
    if isinstance(params_or_alpha, StableParams):
        alpha, d, beta = (params_or_alpha.alpha, params_or_alpha.d,
                          params_or_alpha.beta)
    else:
        alpha = float(params_or_alpha)
        total = c_plus + c_minus
        if min(c_plus, c_minus) < 0.0 or not total > 0.0:
            raise ValueError("need nonnegative intensities with a positive sum")
        d = total / (2.0 * stability_constant(alpha))
        beta = (c_plus - c_minus) / total
    tan_term = math.tan(math.pi * alpha / 2.0)

    def integrand(u):
        s = d * np.abs(u) ** alpha
        return (1.0 + s) / ((1.0 + s) ** 2 + (s * beta * tan_term) ** 2)

    edges = [0.0, min(1.0, u_max)]
    while edges[-1] < u_max:
        edges.append(min(10.0 * edges[-1], u_max))
    acc = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10,
                                limit=300)
        acc += val
    return 2.0 * acc


__all__ = [
    "Grid",
    "GridFunction",
    "ResolutionError",
    "NonDecayingInputError",
    "ToleranceError",
    "forward_transform",
    "inverse_transform",
    "levy_symbol",
    "char_function",
    "transition_density",
    "generator_apply",
    "generator_apply_windowed",
    "generator_quadrature",
    "smoothstep_window",
    "negative_moment_bound",
    "existence_integral",
]
