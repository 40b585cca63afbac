import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from stable_tanaka.params import derive_params, nu_tail_mass, nu_tail_mean
from stable_tanaka.spectral import (
    Grid,
    NonDecayingInputError,
    ResolutionError,
    ToleranceError,
    char_function,
    existence_integral,
    generator_apply,
    generator_apply_windowed,
    generator_quadrature,
    levy_symbol,
    negative_moment_bound,
    smoothstep_window,
    transition_density,
)

SYM = derive_params(1.5, 1.0, 1.0)
SKEW = derive_params(1.5, 3.0, 1.0)
MILD = derive_params(1.5, 2.0, 1.0)

# Frozen references (50-digit arbitrary-precision runs)
S_BOUND_15_05 = 0.95309310592980045333  # S(1.5, 0.5), c+ = c- = 1, t = 1
EXISTENCE_SYM_UNIT = {
    1.2: (2.8666929, 3.6656856, 3.9838699),
    1.5: (2.0440685, 2.1517740, 2.1625454),
    1.8: (1.2918686, 1.3019639, 1.3022175),
}


# ---------------------------------------------------------------- symbol

def test_symbol_zero_and_sign():
    assert levy_symbol(SYM, 0.0) == 0.0
    for u in (0.3, -0.3, 2.0, -17.5):
        assert levy_symbol(SYM, u).real <= 0.0


def test_symbol_symmetric_is_real_power():
    for u in (0.5, 1.0, 4.0):
        val = levy_symbol(SYM, u)
        assert val.imag == 0.0
        assert val.real == pytest.approx(-SYM.d * u**1.5, rel=1e-14)


def test_symbol_hermitian():
    u = np.array([0.1, 0.7, 3.0, 25.0])
    plus = levy_symbol(SKEW, u)
    minus = levy_symbol(SKEW, -u)
    np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-15)


def test_symbol_closed_form_at_three_halves():
    # tan(3*pi/4) = -1 makes the skewed symbol exactly -d|u|^1.5 (1 + i beta sgn u)
    u = 2.0
    val = levy_symbol(SKEW, u)
    mag = SKEW.d * u**1.5
    assert val.real == pytest.approx(-mag, rel=1e-14)
    assert val.imag == pytest.approx(-mag * 0.5, rel=1e-12)


def test_char_function_basics():
    assert char_function(SKEW, 0.73, 0.0) == 1.0 + 0.0j
    u, t = 1.7, 0.4
    assert abs(char_function(SKEW, u, t)) == pytest.approx(
        math.exp(-SKEW.d * t * u**1.5), rel=1e-14)
    lhs = char_function(SKEW, u, 0.9)
    rhs = char_function(SKEW, u, 0.6) * char_function(SKEW, u, 0.3)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    with pytest.raises(ValueError):
        char_function(SKEW, 1.0, -0.1)


# ---------------------------------------------------------------- grids

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(half_width=0.0, n_points=512)
    with pytest.raises(ValueError):
        Grid(half_width=10.0, n_points=500)  # not a power of two
    with pytest.raises(ValueError):
        Grid(half_width=10.0, n_points=128)  # too small
    g = Grid(10.0, 512)
    assert g.spacing == pytest.approx(20.0 / 512)
    assert g.points[0] == -10.0
    assert g.points[256] == 0.0


def test_generator_apply_validation():
    g = Grid(10.0, 256)
    with pytest.raises(ValueError, match="shape"):
        generator_apply(SYM, np.zeros(255), g)
    bad = np.zeros(256)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        generator_apply(SYM, bad, g)


# ---------------------------------------------------------------- density

DENSITY_GRID = Grid(80.0, 2**14)


def test_density_mass_and_positivity():
    p = transition_density(SYM, 1.0, DENSITY_GRID)
    mass = np.trapezoid(p, dx=DENSITY_GRID.spacing)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert p.min() > -1e-12


def test_density_symmetric_case_even():
    v = transition_density(SYM, 1.0, DENSITY_GRID)
    np.testing.assert_allclose(v[1:], v[1:][::-1], atol=1e-8 * v.max())


def test_density_skewed_mass_and_cf_round_trip():
    p = transition_density(SKEW, 1.0, DENSITY_GRID)
    mass = np.trapezoid(p, dx=DENSITY_GRID.spacing)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # transforming the density back recovers the characteristic function:
    # int p e^{-iux} dx on the grid is h (-1)^k fft(p)_k
    signs = np.where(np.arange(DENSITY_GRID.n_points) % 2, -1.0, 1.0)
    phat = DENSITY_GRID.spacing * signs * np.fft.fft(p)
    phi = char_function(SKEW, DENSITY_GRID.freqs, 1.0)
    np.testing.assert_allclose(phat, np.conj(phi), atol=1e-12)


def test_density_scaling_dual_grid_exact():
    # doubling t and stretching the grid by 2^(1/alpha) makes the two
    # trapezoid inversions correspond term by term
    t_scale = 2.0 ** (1.0 / 1.5)
    g1 = Grid(40.0, 2**13)
    g2 = Grid(40.0 * t_scale, 2**13)
    p1 = transition_density(SKEW, 1.0, g1)
    p2 = transition_density(SKEW, 2.0, g2)
    np.testing.assert_allclose(p2, p1 / t_scale, rtol=1e-11,
                               atol=1e-15)


def test_density_scaling_interpolated():
    # same law, now compared on a single grid through a spline; the window
    # must be wide enough that the differently-folded periodization tails
    # (~ t nu(2L) per image) sit below the comparison tolerance
    g = Grid(400.0, 2**16)
    p1 = transition_density(SYM, 1.0, g)
    p2 = transition_density(SYM, 2.0, g)
    t_scale = 2.0 ** (1.0 / 1.5)
    y = np.linspace(-15.0, 15.0, 1001)
    lhs = CubicSpline(g.points, p2)(y)
    rhs = CubicSpline(g.points, p1)(y / t_scale) / t_scale
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_density_resolution_guard():
    with pytest.raises(ResolutionError):
        transition_density(SYM, 1e-4, Grid(40.0, 256))
    with pytest.raises(ValueError):
        transition_density(SYM, 0.0, DENSITY_GRID)


# ---------------------------------------------------------------- generator

def test_generator_zero_input():
    g = Grid(20.0, 1024)
    out = generator_apply(SYM, np.zeros(1024), g)
    assert np.all(out == 0.0)


def test_generator_rejects_non_decaying():
    g = Grid(20.0, 1024)
    with pytest.raises(NonDecayingInputError):
        generator_apply(SYM, np.ones(1024), g)


def _complete_tail(params, band_value, fx, fpx, h_max=1e3):
    # close the reported |h| > h_max truncation with its exact -f(x), -f'(x)h
    # moments; legitimate for targets tighter than nu({|h|>h_max}) whenever
    # the leftover int f(x+h) nu(dh) tail is itself negligible
    return band_value - fx * nu_tail_mass(params, h_max) \
        - fpx * nu_tail_mean(params, h_max)


@pytest.mark.parametrize("params", [SYM, SKEW])
def test_generator_matches_quadrature(params):
    g = Grid(160.0, 2**14)
    x = g.points
    spectral_vals = generator_apply(params, np.exp(-0.5 * x**2), g)

    f = lambda y: math.exp(-0.5 * y * y)
    fp = lambda y: -y * math.exp(-0.5 * y * y)
    fpp = lambda y: (y * y - 1.0) * math.exp(-0.5 * y * y)
    diffs, scale = [], 0.0
    for target in (0.0, 0.8, -1.3, 2.0):
        j = int(np.argmin(np.abs(x - target)))
        direct = generator_quadrature(params, f, x[j], fprime=fp, fsecond=fpp)
        direct = _complete_tail(params, direct, f(x[j]), fp(x[j]))
        diffs.append(abs(spectral_vals[j] - direct))
        scale = max(scale, abs(direct))
    assert max(diffs) < 1e-4 * scale


def test_generator_quadrature_kills_affine():
    val = generator_quadrature(SKEW, lambda y: 2.0 * y + 3.0, 0.7,
                               fprime=lambda y: 2.0, fsecond=lambda y: 0.0)
    assert abs(val) < 1e-8


@pytest.mark.parametrize("u", [0.5, 2.0])
def test_generator_quadrature_recovers_symbol(u):
    eta = levy_symbol(MILD, u)
    re = generator_quadrature(MILD, lambda y: math.cos(u * y), 0.0,
                              fprime=lambda y: -u * math.sin(u * y),
                              fsecond=lambda y: -u * u * math.cos(u * y))
    im = generator_quadrature(MILD, lambda y: math.sin(u * y), 0.0,
                              fprime=lambda y: u * math.cos(u * y),
                              fsecond=lambda y: -u * u * math.sin(u * y))
    re = _complete_tail(MILD, re, 1.0, 0.0)
    im = _complete_tail(MILD, im, 0.0, u)
    assert re == pytest.approx(eta.real, rel=1e-6)
    assert im == pytest.approx(eta.imag, rel=1e-6)


def test_generator_quadrature_symbol_off_origin():
    # L[cos(u .)](x) = Re eta cos(ux) - Im eta sin(ux)
    u, x0 = 1.3, 0.7
    eta = levy_symbol(SKEW, u)
    val = generator_quadrature(SKEW, lambda y: math.cos(u * y), x0,
                               fprime=lambda y: -u * math.sin(u * y),
                               fsecond=lambda y: -u * u * math.cos(u * y))
    val = _complete_tail(SKEW, val, math.cos(u * x0), -u * math.sin(u * x0))
    expected = eta.real * math.cos(u * x0) - eta.imag * math.sin(u * x0)
    assert val == pytest.approx(expected, rel=1e-6)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_generator_quadrature_errors():
    f = lambda y: math.exp(-y * y)
    assert math.isfinite(generator_quadrature(SYM, f, 0.5))
    with pytest.raises(ValueError):
        generator_quadrature(SYM, f, 0.0, h_min=1.0, h_max=0.5)
    with pytest.raises(ToleranceError):
        generator_quadrature(SYM, f, 0.5, tol=0.0)


def test_windowed_generator_against_quadrature_oracle():
    g = Grid(20.0, 2048)
    gauss = lambda y: np.exp(-0.5 * np.asarray(y, dtype=float) ** 2)
    x_rep, vals = generator_apply_windowed(SYM, gauss, g)
    assert np.array_equal(x_rep, g.points[np.abs(g.points) <= 5.0])

    f = lambda y: math.exp(-0.5 * y * y)
    fp = lambda y: -y * math.exp(-0.5 * y * y)
    fpp = lambda y: (y * y - 1.0) * math.exp(-0.5 * y * y)
    for target in (0.0, -2.5, 2.5, 4.0):
        j = int(np.argmin(np.abs(x_rep - target)))
        direct = _complete_tail(
            SYM,
            generator_quadrature(SYM, f, x_rep[j], fprime=fp, fsecond=fpp),
            f(x_rep[j]), fp(x_rep[j]))
        assert vals[j] == pytest.approx(direct, abs=2e-6)


def test_windowed_generator_removes_image_pollution():
    # the plain multiplier of a decaying input still carries its periodic
    # images' jump-tail contributions; the windowed variant subtracts them
    g = Grid(20.0, 2048)
    gauss = lambda y: np.exp(-0.5 * np.asarray(y, dtype=float) ** 2)
    plain = generator_apply(SYM, gauss(g.points), g)
    x_rep, vals = generator_apply_windowed(SYM, gauss, g)
    mask = np.abs(g.points) <= 5.0
    diff = np.abs(vals - plain[mask])
    assert diff.max() < 2e-3
    assert diff.max() > 1e-5  # the images genuinely contribute at this L


def test_smoothstep_window_plateaus():
    x = np.array([-3.0, -1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0])
    w = smoothstep_window(x, 2.0, 3.0)
    np.testing.assert_array_equal(w[np.abs(x) <= 2.0], 1.0)
    np.testing.assert_array_equal(w[np.abs(x) >= 3.0], 0.0)
    assert 0.0 < w[5] < 1.0
    with pytest.raises(ValueError):
        smoothstep_window(x, 3.0, 2.0)


# ---------------------------------------------------------------- moments

def test_negative_moment_bound_frozen_value():
    assert negative_moment_bound(SYM, 0.5, 1.0) == pytest.approx(
        S_BOUND_15_05, rel=1e-10)


# S(alpha, gamma) t^(-gamma/alpha) for (alpha, c+, c-, gamma, t), recorded
# from the former quadrature of int |v|^(gamma-1) e^(-d|v|^alpha) dv
NEGATIVE_MOMENT_PINS = [
    ((1.2, 1.0, 1.0, 0.3, 1.0), 0.8614101270395572),
    ((1.7, 3.0, 1.0, 0.5, 0.5), 0.9223232960926554),
    ((1.9, 0.0, 1.0, 0.8, 2.0), 1.1224449568551347),
    ((1.3, 1.0, 0.0, 0.2, 1.0), 1.0013905821620106),
]


@pytest.mark.parametrize("point, expected", NEGATIVE_MOMENT_PINS)
def test_negative_moment_bound_matches_quadrature(point, expected):
    alpha, c_plus, c_minus, gamma, t = point
    params = derive_params(alpha, c_plus, c_minus)
    assert negative_moment_bound(params, gamma, t) == pytest.approx(
        expected, rel=1e-12)


def test_negative_moment_time_scaling():
    gamma = 0.3
    ratio = negative_moment_bound(SKEW, gamma, 2.0) / negative_moment_bound(
        SKEW, gamma, 1.0)
    assert ratio == pytest.approx(2.0 ** (-gamma / 1.5), rel=1e-12)


def test_negative_moment_degenerate_gamma():
    assert negative_moment_bound(SYM, 1e-4, 1.0) == pytest.approx(1.0, abs=1e-2)


def test_negative_moment_domain():
    for gamma in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            negative_moment_bound(SYM, gamma, 1.0)
    with pytest.raises(ValueError):
        negative_moment_bound(SYM, 0.5, 0.0)


# ---------------------------------------------------------------- existence

@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_existence_partials_frozen(alpha):
    expected = EXISTENCE_SYM_UNIT[alpha]
    got = [existence_integral(alpha, r) for r in (1e2, 1e4, 1e6)]
    np.testing.assert_allclose(got, expected, rtol=1e-6)


def test_existence_skewed_intensities_match_params():
    # c+ = 3, c- = 1 must give the symbol scale and skew of derive_params
    tan_term = SKEW.tan_half_pi_alpha

    def integrand(u):
        s = SKEW.d * u ** 1.5
        return (1.0 + s) / ((1.0 + s) ** 2 + (s * SKEW.beta * tan_term) ** 2)

    direct = sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
                 for lo, hi in ((0.0, 1.0), (1.0, 1e2), (1e2, 1e4)))
    assert existence_integral(1.5, 1e4, 3.0, 1.0) == pytest.approx(
        2.0 * direct, rel=1e-9)


def test_existence_small_cutoff_is_integrand_at_origin():
    # integrand -> 1 at u = 0, so tiny partial integrals are ~ 2 u_max
    assert existence_integral(1.5, 1e-6) == pytest.approx(2e-6, rel=1e-3)


def test_existence_divergence_below_one():
    vals = [existence_integral(0.9, 10.0**k) for k in range(2, 7)]
    for lo, hi in zip(vals[:-1], vals[1:]):
        assert hi > 1.10 * lo


def test_existence_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        existence_integral(1.5, 0.0)
