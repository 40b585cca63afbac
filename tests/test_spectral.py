import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from quadrature_oracle import generator_quadrature
from stable_tanaka.experiments import run_experiment
from stable_tanaka.kernel import kernel_convolve, standard_bump
from stable_tanaka.params import (
    derive_params,
    nu_density,
    nu_tail_mass,
    nu_tail_mean,
    stability_constant,
    symbol_coefficients,
)
from stable_tanaka.spectral import (
    Grid,
    NonDecayingInputError,
    ResolutionError,
    ToleranceError,
    _far_field,
    char_function,
    existence_integral,
    existence_limit,
    generator_apply,
    generator_apply_windowed,
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
# partials at cutoffs 1e2, 1e4, 1e6, c+ = c- = 1, from a 40-digit run
# (the 2F1 form and direct quadrature agreed to 30 digits)
EXISTENCE_SYM_UNIT = {
    1.2: (2.8666929168789828, 3.6656855764224723, 3.9838699360939759),
    1.5: (2.0440685420560501, 2.1517740077244641, 2.1625454484001459),
    1.8: (1.2918686353316197, 1.3019639453528105, 1.3022175313898255),
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


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_char_function_refuses_nonfinite_time(t):
    # NaN is not below 0, and exp(t eta) would be NaN throughout
    with pytest.raises(ValueError, match="finite"):
        char_function(SKEW, np.array([0.0, 1.0]), t)


@pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan,
                               np.array([0.0, math.inf])])
def test_char_function_refuses_nonfinite_frequency(u):
    # the symbol's product would warn at inf, and NaN would give NaN
    with pytest.raises(ValueError, match="finite"):
        char_function(SKEW, u, 1.0)


# ---------------------------------------------------------------- grids

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(half_width=0.0, n_points=512)
    with pytest.raises(ValueError):
        Grid(half_width=10.0, n_points=500)  # not a power of two
    with pytest.raises(ValueError):
        Grid(half_width=10.0, n_points=128)  # too small
    with pytest.raises(ValueError, match="n_points"):
        Grid(half_width=40.0, n_points=256.0)  # a float count
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


@pytest.mark.parametrize("alpha, bar", [
    (1.1, 1.2e-3), (1.3, 5e-5), (1.5, 8e-6), (1.8, 1.1e-6)])
def test_density_at_zero_periodization_budget(alpha, bar):
    # p_t(0) = Gamma(1 + 1/alpha) Re[(k d)^(-1/alpha)] / pi * t^(-1/alpha),
    # k = 1 - i beta tan(pi alpha / 2), against the FFT value at the
    # centre point of a [-400, 400] grid of 2^17. The 2L-periodic images
    # add mass, so the FFT value reads high, by at most 6.0e-4 relative
    # at alpha 1.1, 2.6e-5 at 1.3, 4.1e-6 at 1.5 and 5.3e-7 at 1.8 as
    # measured over these triplets and times
    grid = Grid(400.0, 2**17)
    centre = grid.n_points // 2
    assert grid.points[centre] == 0.0
    for pair in ((1.0, 1.0), (3.0, 1.0), (0.0, 1.0), (1.0, 0.0)):
        params = derive_params(alpha, *pair)
        k = complex(1.0, -params.beta * math.tan(math.pi * alpha / 2.0))
        p1 = math.gamma(1.0 + 1.0 / alpha) \
            * ((k * params.d) ** (-1.0 / alpha)).real / math.pi
        for t in (0.5, 1.0):
            exact = p1 * t ** (-1.0 / alpha)
            got = transition_density(params, t, grid)[centre]
            assert exact <= got <= exact * (1.0 + bar)


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
    fp = lambda y: -2.0 * y * math.exp(-y * y)
    fpp = lambda y: (4.0 * y * y - 2.0) * math.exp(-y * y)
    assert math.isfinite(generator_quadrature(SYM, f, 0.5, fp, fpp))
    with pytest.raises(ToleranceError):
        generator_quadrature(SYM, f, 0.5, fp, fpp, tol=0.0)
    # the derivatives are the caller's to give exactly
    with pytest.raises(TypeError):
        generator_quadrature(SYM, f, 0.5)


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


def test_windowed_generator_refuses_non_finite_input():
    g = Grid(20.0, 1024)
    with pytest.raises(ValueError, match="non-finite"):
        generator_apply_windowed(
            SYM, lambda y: np.where(np.asarray(y) > 3.0, math.nan, 0.0), g)


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


def _mollified_kernel(params):
    # criterion 1's g = F * phi for the unit bump phi of support width 2
    return lambda y: kernel_convolve(params, standard_bump, y, radius=1.0)


def _far_field_by_quad(params, g, x, r_in, r_out):
    """The adaptive route the far field took before its fixed rules, kept
    as its reference."""
    def integrand(y):
        return g(y) * (1.0 - smoothstep_window(y, r_in, r_out)) \
            * nu_density(params, y - x)

    acc = 0.0
    for a, b in ((r_in, r_out), (r_out, np.inf),
                 (-r_out, -r_in), (-np.inf, -r_out)):
        val, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=400)
        acc += val
    return acc


# criterion 1's grid: L = 40, window band 28..38, report radius 10
CHEB_NODES = 10.0 * np.cos(np.pi * np.arange(33) / 32)


@pytest.mark.parametrize("alpha, beta", [(1.5, 0.0), (1.5, 0.5)])
def test_far_field_matches_adaptive_quadrature(alpha, beta):
    params = derive_params(alpha, 1.0 + beta, 1.0 - beta)
    g = _mollified_kernel(params)
    got = _far_field(params, g, CHEB_NODES, 28.0, 38.0)
    want = [_far_field_by_quad(params, g, x, 28.0, 38.0) for x in CHEB_NODES]
    assert np.max(np.abs(got)) > 1e-3
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_far_field_refuses_what_its_rules_cannot_resolve():
    # a unit step inside the window band: the order-64 and order-32 rules
    # disagree, and the far field raises instead of returning either
    step = lambda y: (np.abs(y) >= 31.0).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceError, match="far-field rules"):
            _far_field(SYM, step, CHEB_NODES, 28.0, 38.0)
        with pytest.raises(ToleranceError):
            generator_apply_windowed(SYM, step, Grid(40.0, 2 ** 10))
        # a NaN would slip past the comparison of the two rules
        blowup = lambda y: np.where(np.abs(y) > 50.0, np.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            _far_field(SYM, blowup, CHEB_NODES, 28.0, 38.0)


# criterion 1's sup_relative_error per (alpha, beta) corner, recorded with
# the fixed far-field rules and the closed-form bump normalization
CRITERION_1_PINS = [
    ((1.2, 0.0), 2.3260953952525644e-07),
    ((1.5, 0.0), 5.885212361401825e-07),
    ((1.5, 0.5), 8.203623941848069e-07),
    ((1.8, -1.0), 6.348445435433253e-06),
    ((1.3, 1.0), 7.055887057221977e-07),
]
# and the sha256 (first 16 hex digits) of each corner's applied curve on
# its 4097 report points, little-endian doubles, so a move of any bit
# below the sups' 1e-14 shows too
CRITERION_1_DIGESTS = {
    (1.2, 0.0): "bf9d9b3cb2b1081c",
    (1.5, 0.0): "5ce76f55a8b0ef54",
    (1.5, 0.5): "87521dcd88120c1b",
    (1.8, -1.0): "78ed6e7d979516d4",
    (1.3, 1.0): "4620b607758e1264",
}


@pytest.mark.parametrize("corner, expected", CRITERION_1_PINS)
def test_generator_identity_values_pinned(corner, expected):
    alpha, beta = corner
    rep = run_experiment({
        "kind": "generator-identity",
        "params": {"alpha": alpha, "c_plus": 1.0 + beta,
                   "c_minus": 1.0 - beta},
        "options": {"half_width": 40.0, "n_points": 2 ** 14,
                    "bump_width": 2.0, "report_radius": 10.0,
                    "tolerance": 1e-2}})
    assert rep.statistics["sup_relative_error"] == pytest.approx(
        expected, rel=0.0, abs=1e-14)
    applied = rep.curves["identity"]["rows"][:, 1]
    assert len(applied) == 4097
    digest = hashlib.sha256(
        np.ascontiguousarray(applied).astype("<f8").tobytes()).hexdigest()
    assert digest[:16] == CRITERION_1_DIGESTS[corner]


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
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def _existence_by_quadrature(alpha, cutoffs, c_plus, c_minus):
    """The partials by adaptive quadrature, one decade at a time, with an
    integrand that stays finite where (1 + s)^2 overflows: the form
    existence_integral had before its closed form, kept as its reference.
    ``cutoffs`` are increasing powers of ten."""
    total = c_plus + c_minus
    d = total / (2.0 * stability_constant(alpha))
    skew = (c_plus - c_minus) / total * math.tan(math.pi * alpha / 2.0)
    s_max = 9e153 / max(1.0, abs(skew))

    def integrand(u):
        s = d * np.abs(u) ** alpha
        if s >= s_max:
            with np.errstate(over="ignore"):
                den = (1.0 + s) ** 2 + (s * skew) ** 2
            if den == math.inf:
                return 1.0 / (1.0 + s) / (1.0 + (skew / (1.0 + 1.0 / s)) ** 2)
        return (1.0 + s) / ((1.0 + s) ** 2 + (s * skew) ** 2)

    out, acc, lo = [], 0.0, 0.0
    for cutoff in cutoffs:
        while lo < cutoff:
            hi = min(cutoff, max(1.0, 10.0 * lo))
            acc += quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10,
                        limit=300)[0]
            lo = hi
        out.append(2.0 * acc)
    return out


EXISTENCE_CUTOFFS = [1e-6, 1e-2, 1.0] + [10.0 ** k for k in
                                         (1, 2, 4, 6, 10, 20, 50, 100, 150)]


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 1.01, 1.2, 1.5, 1.8, 1.99])
@pytest.mark.parametrize("pair", [(1.0, 1.0), (3.0, 1.0), (1.0, 0.0),
                                  (0.0, 1.0)])
def test_existence_closed_form_matches_quadrature(alpha, pair):
    got = [existence_integral(alpha, u, *pair) for u in EXISTENCE_CUTOFFS]
    np.testing.assert_allclose(
        got, _existence_by_quadrature(alpha, EXISTENCE_CUTOFFS, *pair),
        rtol=1e-9, atol=0.0)


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


@pytest.mark.parametrize("alpha, pair, u_far", [
    (1.2, (1.0, 1.0), 1e250), (1.5, (1.0, 1.0), 1e200),
    (1.3, (3.0, 1.0), 1e200), (1.8, (0.0, 1.0), 1e150)])
def test_existence_limit_is_the_far_partial(alpha, pair, u_far):
    # past u_far the remainder is below 1e-40, so the partial is the limit
    # up to the 2F1's rounding; measured <= 2.6e-14 relative
    assert existence_limit(alpha, *pair) == pytest.approx(
        existence_integral(alpha, u_far, *pair), rel=1e-13)


@pytest.mark.parametrize("alpha, pair", [
    (1.2, (1.0, 1.0)), (1.5, (1.0, 1.0)), (1.8, (1.0, 1.0)),
    (1.5, (3.0, 1.0)), (1.8, (0.0, 1.0))])
def test_existence_remainder_at_the_last_cutoff(alpha, pair):
    # what criterion 9's ladder leaves past U = 1e6: to leading order
    # 2 U^(1-alpha) / (d (alpha-1) (1 + beta^2 tan^2(pi alpha / 2)));
    # measured agreement <= 3.1e-9 relative
    u = 1e6
    beta, d = symbol_coefficients(alpha, *pair)
    tan = math.tan(math.pi * alpha / 2.0)
    leading = 2.0 * u ** (1.0 - alpha) / (
        d * (alpha - 1.0) * (1.0 + (beta * tan) ** 2))
    remainder = existence_limit(alpha, *pair) \
        - existence_integral(alpha, u, *pair)
    assert remainder == pytest.approx(leading, rel=1e-7)
    # the values quoted for criterion 9, to the digits quoted
    quoted = {1.2: (0.2105, 5e-5), 1.5: (1.20e-3, 5e-6)}
    if pair == (1.0, 1.0) and alpha in quoted:
        value, half_unit = quoted[alpha]
        assert abs(remainder - value) <= half_unit


@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.8, 1.99])
def test_existence_limit_is_phi_prime_one_sided(alpha):
    # one-sided, the limit over 2 pi is Phi'(1) = kappa^(-1/alpha) / alpha,
    # Phi(q) = (q / kappa)^(1/alpha) the inverse of the Laplace exponent
    # psi(lambda) = kappa lambda^alpha, kappa = d / |cos(pi alpha / 2)|;
    # the worst measured over these triplets was 1.1e-15 relative
    for pair in ((0.0, 1.0), (0.0, 2.5), (1.0, 0.0), (3.0, 0.0)):
        _, d = symbol_coefficients(alpha, *pair)
        kappa = d / abs(math.cos(math.pi * alpha / 2.0))
        phi_prime = kappa ** (-1.0 / alpha) / alpha
        assert existence_limit(alpha, *pair) / (2.0 * math.pi) \
            == pytest.approx(phi_prime, rel=2.2e-15, abs=0.0)


def test_existence_limit_needs_convergence():
    for alpha in (0.9, 1.0, 2.0):
        with pytest.raises(ValueError, match="converges only"):
            existence_limit(alpha)


def test_existence_small_cutoff_is_integrand_at_origin():
    # integrand -> 1 at u = 0, so tiny partial integrals are ~ 2 u_max
    assert existence_integral(1.5, 1e-6) == pytest.approx(2e-6, rel=1e-3)


def test_existence_divergence_below_one():
    vals = [existence_integral(0.9, 10.0**k) for k in range(2, 7)]
    for lo, hi in zip(vals[:-1], vals[1:]):
        assert hi > 1.10 * lo


@pytest.mark.filterwarnings("error:::stable_tanaka")
def test_existence_scan_past_the_square_overflow():
    # past d u^alpha ~ 1e154, (1 + s)^2 overflows although s does not; the
    # scan still runs without a warning and the partials stay finite. The
    # tail past 1e100 is ~1e-50 at alpha 1.5, so the far partial is the
    # near one
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [1.5],
                                      "cutoffs": [1e2, 1e200]}})
    assert all(math.isfinite(v.measured) for v in rep.verdicts)
    for c_plus in (1.0, 3.0):
        far = existence_integral(1.5, 1e200, c_plus, 1.0)
        assert far == pytest.approx(
            existence_integral(1.5, 1e100, c_plus, 1.0), rel=1e-12)
    # near alpha = 1 the skew term overflows first and the tail is heavy:
    # every decade up to 1e150 still adds a finite, positive amount
    partials = [existence_integral(1.0001, 10.0 ** k, 3.0, 1.0)
                for k in (100, 125, 150)]
    assert 0.0 < partials[0] < partials[1] < partials[2] < math.inf


def test_existence_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        existence_integral(1.5, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, match", [
    ((1.5, 1e250, 3.0, 1.0), "overflows"), ((1.999, 1e200), "overflows"),
    ((0.9, math.inf), "overflows"),
    # the skew factor |1 - i beta tan(pi alpha / 2)| ~ 3e3 overflows the
    # argument, though d u^alpha ~ 2e305 does not
    ((1.0001, 3e304, 3.0, 1.0), "overflows"),
    # a finite argument, but 2 u_max overflows, or the 2F1 gives NaN
    ((0.5, 1.7e308, 1e-300, 1e-300), "partial integral is inf"),
    ((0.01, 1e3), "partial integral is nan")])
def test_existence_rejects_non_finite(args, match):
    with pytest.raises(ValueError, match=match):
        existence_integral(*args)


# an infinite intensity, or a sum of two that overflows, is refused by
# name, not as an overflowing 2F1 argument or a NaN limit
@pytest.mark.parametrize("fn, args", [
    (existence_limit, (1.5, math.inf, 1.0)),
    (existence_limit, (1.5, 1e308, 1e308)),
    (existence_integral, (1.5, 10.0, math.inf, 1.0)),
    (symbol_coefficients, (0.9, 1.0, math.inf))])
def test_infinite_intensities_refused(fn, args):
    with pytest.raises(ValueError, match="positive finite sum"):
        fn(*args)
