"""Kernel, mollifier, convolution, and compensator-density tests.

Oracle values: the bump normalization and peak were computed with mpmath
(50 digits) from int exp(-1/(1-x^2)), which is e^(-1/2) (K_1(1/2) -
K_0(1/2)) in closed form; convolution and compensator checks run
against scipy adaptive quadrature or brute-force Riemann sums built here,
independently of the library's panel rules.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from stable_tanaka.kernel import (
    MollifierSpec,
    _BUMP_NORMALIZATION,
    _PAIR_TILE,
    _jacobi_rule,
    _legendre_rule,
    _row_tiles,
    compensator_density,
    kernel_convolve,
    kernel_F,
    kernel_F_prime,
    kernel_F_second,
    standard_bump,
)
from stable_tanaka.params import (
    derive_params,
    nu_density,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
)
from stable_tanaka.spectral import char_function, levy_symbol

# int_{-1}^{1} exp(-1/(1-x^2)) dx and exp(-1)/Z, mpmath 50 digits
BUMP_NORM = 0.44399381616807943782
BUMP_PEAK = 0.82856883986910515166

SYM = derive_params(1.5, 1.0, 1.0)     # beta = 0
SKEW = derive_params(1.5, 3.0, 1.0)    # beta = 1/2
LOW = derive_params(1.2, 1.0, 1.0)


# ---------------------------------------------------------------- mollifier

def test_bump_normalization_frozen():
    # the integral is e^(-1/2) (K_1(1/2) - K_0(1/2)) in closed form, which
    # the library evaluates; it must be the correctly rounded value
    assert abs(_BUMP_NORMALIZATION - BUMP_NORM) <= 0.5 * np.spacing(BUMP_NORM)
    assert standard_bump(0.0) == pytest.approx(BUMP_PEAK, rel=1e-12)


def test_bump_support_and_mass():
    assert standard_bump(1.0) == 0.0
    assert standard_bump(-1.0) == 0.0
    assert standard_bump(1.7) == 0.0
    assert standard_bump(0.999) > 0.0
    xs = np.linspace(-2, 2, 101)
    vals = standard_bump(xs)
    assert np.all(vals >= 0.0)
    assert np.allclose(vals, standard_bump(-xs))
    mass, err = integrate.quad(standard_bump, -1, 1, epsabs=1e-14, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


# True would be taken for the index 1, a width-1 mollifier
@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_mollifier_rejects_bad_index(bad):
    with pytest.raises(ValueError):
        MollifierSpec(bad)


def test_mollifier_scaling_and_mass():
    moll = MollifierSpec(7)
    assert moll.width == pytest.approx(1.0 / 7.0)
    xs = np.linspace(-0.2, 0.2, 41)
    assert np.allclose(moll(xs), 7.0 * standard_bump(7.0 * xs))
    assert moll(1.0 / 7.0 + 1e-9) == 0.0
    assert moll(0.99 / 7.0) > 0.0
    mass, _ = integrate.quad(moll, -moll.width, moll.width,
                             epsabs=1e-14, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_mollifier_far_arguments_are_zero_and_support_bits_kept():
    # n x may overflow far from the support, silently, and the value there
    # is 0; inside the support the bits are those of n rho(n x)
    moll = MollifierSpec(31)
    xs = np.concatenate([np.linspace(-0.1, 0.1, 2001),
                         [1e308, -1e308, np.inf, -np.inf, 1e300, 2.0 / 31]])
    direct = 31 * standard_bump(31 * xs[:2001])
    assert moll(xs[:2001]).tobytes() == direct.tobytes()
    assert np.all(moll(xs[2001:]) == 0.0)
    assert moll(1e308) == 0.0
    assert moll(0.0) == 31 * standard_bump(0.0)


# four uniform draws on (-1, 1), as hex so the inputs are exact
_PIN_DRAWS = ["0x1.00320d4f8f2a4p-2", "0x1.96bf36f2bc99ap-1",
              "0x1.1a4d597e502bep-1", "-0x1.19634950aa578p-1"]


def _pin_points(width):
    """0, +-width, +-2 width, their neighbours either side, +-0.999 width
    and the draws times width."""
    edges = np.array([width, -width, 2.0 * width, -2.0 * width])
    return np.concatenate([
        [0.0], edges, np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf), [0.999 * width, -0.999 * width],
        [float.fromhex(d) * width for d in _PIN_DRAWS]])


@pytest.mark.filterwarnings("error:::stable_tanaka")
def test_mollifier_and_bump_bits_pinned():
    # one pass over the whole array, the entries with |n x| >= 1 then
    # zeroed, gives the floats of evaluating the support's points alone,
    # bit for bit (these hex values are that form's), and no warning
    zero = ["0x0.0p+0"] * 12
    tail = ["0x1.806c7523aafe7p+4", "0x1.290fe99149291p+2",
            "0x1.0986fa3cb9dddp+4", "0x1.0a9aa608c5fc4p+4"]
    moll = MollifierSpec(31)
    want = (["0x1.9af85b6516581p+4"] + zero + ["0x1.55d9073e1ea42p-716"] * 2
            + tail)
    points = _pin_points(moll.width)
    assert [float(v).hex() for v in moll(points)] == want
    assert [moll(float(x)).hex() for x in points] == want
    tail = ["0x1.8cd30d902c618p-1", "0x1.32a512225c096p-3",
            "0x1.1217b7fc9ed47p-1", "0x1.1334484b1ef3ep-1"]
    want = (["0x1.a83a2ccb71e75p-1"] + zero + ["0x1.60e00779ee14cp-721"] * 2
            + tail)
    points = _pin_points(1.0)
    assert [float(v).hex() for v in standard_bump(points)] == want
    assert [standard_bump(float(x)).hex() for x in points] == want


# ------------------------------------------------------------------- kernel

def test_kernel_zero_at_origin():
    assert kernel_F(SKEW, 0.0) == 0.0
    assert kernel_F(LOW, 0.0) == 0.0


def test_kernel_one_sided_forms():
    # c_minus = 0 (beta = 1): no mass below, F vanishes on the right
    right_only = derive_params(1.5, 1.0, 0.0)
    xs = np.linspace(0.1, 5, 20)
    assert np.all(kernel_F(right_only, xs) == 0.0)
    assert np.allclose(kernel_F(right_only, -xs),
                       2.0 * right_only.big_d * xs ** 0.5)
    # mirrored case
    left_only = derive_params(1.5, 0.0, 1.0)
    assert np.all(kernel_F(left_only, -xs) == 0.0)
    assert np.allclose(kernel_F(left_only, xs),
                       2.0 * left_only.big_d * xs ** 0.5)


def test_kernel_explicit_values():
    assert kernel_F(SKEW, 1.0) == pytest.approx(SKEW.big_d / 2.0, rel=1e-14)
    assert kernel_F(SKEW, -1.0) == pytest.approx(1.5 * SKEW.big_d, rel=1e-14)
    assert kernel_F(SKEW, 4.0) == pytest.approx(SKEW.big_d, rel=1e-14)


@pytest.mark.parametrize("alpha,c_plus,c_minus", [
    (1.5, 1.0, 1.0), (1.3, 3.0, 1.0), (1.7, 1.0, 0.0), (1.2, 0.0, 1.0)],
    ids=["beta=0", "beta=0.5", "beta=1", "beta=-1"])
def test_kernel_bits_match_formula(alpha, c_plus, c_minus):
    # F is the written formula D (1 - beta sgn(x)) |x|^(alpha-1) with
    # sgn(0) = -1, to the last bit, for arrays and scalars alike
    params = derive_params(alpha, c_plus, c_minus)

    def formula(x):
        sgn = np.where(x > 0.0, 1.0, -1.0)
        return params.big_d * (1.0 - params.beta * sgn) \
            * np.abs(x) ** (params.alpha - 1.0)

    mags = np.geomspace(1e-9, 1e3, 100_001)
    xs = np.concatenate([mags, -mags, [0.0, -0.0]])
    got = kernel_F(params, xs)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert np.array_equal(got.view(np.int64), formula(xs).view(np.int64))
    grid = kernel_F(params, xs[:600].reshape(20, 30))
    assert np.array_equal(grid, formula(xs[:600]).reshape(20, 30))
    for x in (0.0, -0.0, 1e-9, -1e-9, 0.7, -2.5, 1e3, -1e3):
        scalar = kernel_F(params, x)
        assert type(scalar) is float
        want = float(formula(np.asarray(x)))
        assert np.float64(scalar).view(np.int64) \
            == np.float64(want).view(np.int64), x


def test_kernel_symmetric_weight_keeps_where_bits():
    # when D (1 - beta) and D (1 + beta) are one double, F multiplies by it
    # alone; the bits are those of the two-valued np.where weight
    for params in (SYM, derive_params(1.7, 2.0, 2.0)):
        right = params.big_d * (1.0 - params.beta)
        left = params.big_d * (1.0 + params.beta)
        assert right == left
        mags = np.geomspace(1e-9, 1e3, 10_001)
        xs = np.concatenate([mags, -mags, [0.0, -0.0]])
        want = np.abs(xs) ** (params.alpha - 1.0) \
            * np.where(xs > 0.0, right, left)
        assert np.array_equal(kernel_F(params, xs).view(np.int64),
                              want.view(np.int64))


# sha256 over five parameter sets, both one-sided cases among them, of
# each side-coefficient recipe on 5000 random magnitudes in [1e-12, 1e6]
# of either sign plus the edge cases (F' and F'' skip the zeros); recorded
# when each recipe still picked its side coefficients on its own and
# scalars still took a path of their own. F'', G and nu were recorded
# again when their NaN at +-1e308 (G) and at +-1e-300 on a side with a
# zero coefficient (F'' at beta = +-1, nu at c+- = 0) became values; no
# finite entry moved
_RECIPE_SETS = [(1.5, 1.0, 1.0), (1.3, 3.0, 1.0), (1.8, 1.0, 0.0),
                (1.2, 0.0, 2.0), (1.1, 1.0, 1.0)]
_RECIPE_DIGESTS = {
    "kernel_F":
        "8f964a6f881444fed337b2e06402fe95f1ca23b77da3d29f26f36c1600928fa5",
    "kernel_F_prime":
        "4de8257afbb67587ba1c8e2c3a56c5b497c3c1d582a437b68797e24d572a8d14",
    "kernel_F_second":
        "c6c9c54e52f526b12ce6e25211ede238d3dc5e2ef5cb21e0a49aa4495bc876ca",
    "compensator_density":
        "1e6e51cf6a36bfb28e19269aaea94c379d2bdf5164028f1ad90265cd1c641441",
    "nu_density":
        "27d25dd8b5f0f002133efbc60526e8a821d5af556b3cfba88d4750a278a0c765",
}
_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e308, -1e308, 1e-3, -1e-3,
          np.nan]


def test_side_coefficient_recipes_bits_pinned():
    rng = np.random.default_rng(2026)
    mags = 10.0 ** rng.uniform(-12.0, 6.0, 5000)
    xs = np.concatenate([mags * rng.choice([-1.0, 1.0], 5000), _EDGES])
    nonzero = xs[xs != 0.0]
    recipes = {
        "kernel_F": (kernel_F, xs),
        "kernel_F_prime": (kernel_F_prime, nonzero),
        "kernel_F_second": (kernel_F_second, nonzero),
        "compensator_density": (
            lambda p, x: compensator_density(p, x, 1e-3), xs),
        "nu_density": (nu_density, nonzero),
    }
    # the edge cases overflow and divide by zero on purpose
    with np.errstate(all="ignore"):
        for name, (recipe, points) in recipes.items():
            digest = hashlib.sha256()
            for triplet in _RECIPE_SETS:
                params = derive_params(*triplet)
                values = recipe(params, points)
                # NaN only from a NaN input
                assert np.array_equal(np.isnan(values), np.isnan(points)), \
                    (name, triplet)
                digest.update(values.tobytes())
            assert digest.hexdigest() == _RECIPE_DIGESTS[name], name


def test_scalar_calls_keep_their_array_bits():
    # a Python float gives a Python float (complex for eta and phi) with
    # the bits of the same point inside an array: one loop serves both
    rng = np.random.default_rng(31)
    mags = 10.0 ** rng.uniform(-6.0, 6.0, 400)
    xs = np.concatenate([mags * rng.choice([-1.0, 1.0], 400), _EDGES])
    nonzero = xs[xs != 0.0]
    recipes = {
        "kernel_F": (kernel_F, xs, float),
        "kernel_F_prime": (kernel_F_prime, nonzero, float),
        "kernel_F_second": (kernel_F_second, nonzero, float),
        "compensator_density": (
            lambda p, x: compensator_density(p, x, 1e-3), xs, float),
        "nu_density": (nu_density, nonzero, float),
        "levy_symbol": (levy_symbol, xs, complex),
        # finite frequencies where exp(t eta) is neither 1 nor 0
        "char_function": (lambda p, u: char_function(p, u, 1.0),
                          1e-4 * mags, complex),
    }
    with np.errstate(all="ignore"):
        for triplet in _RECIPE_SETS:
            params = derive_params(*triplet)
            for name, (recipe, points, kind) in recipes.items():
                scalars = [recipe(params, float(x)) for x in points]
                assert all(type(v) is kind for v in scalars), name
                want = recipe(params, points)
                got = np.array(scalars, dtype=want.dtype)
                # one row of 64-bit words per point, two for a complex; a
                # NaN's sign bit is no value, so a NaN matches any NaN
                moved = np.flatnonzero(np.any(
                    got.view(np.int64).reshape(len(got), -1)
                    != want.view(np.int64).reshape(len(want), -1), axis=1)
                    & ~(np.isnan(got) & np.isnan(want)))
                assert moved.size == 0, (name, triplet, points[moved[:5]])


# +-{5e-324, 1e-310, 1e-200, 1, 1e200, 1e300, the largest double}
_EXTREMES = np.array([m * side for side in (-1.0, 1.0) for m in (
    5e-324, 1e-310, 1e-200, 1.0, 1e200, 1e300, np.finfo(float).max)])
# values where the powers pass the largest double, the G_eps ones against
# the closed form of the module docstring in 800-digit mpmath (G_eps at
# (1.5, 1, 1) and 1e300 is 3.8e-453 there, which rounds to 0)
_EXTREME_VALUES = {
    ("G", (1.5, 1.0, 1.0), 1e300): 0.0,
    ("G", (1.3, 3.0, 1.0), 1e300): 8.215919167639602e-211,
    ("G", (1.3, 3.0, 1.0), -1e300): -2.4647757502918806e-210,
    ("G", (1.8, 0.0, 2.0), 1e200): -8.4594342195768489e-39,
    ("G", (1.8, 0.0, 2.0), -1e200): 0.0,
    ("nu", (1.8, 0.0, 2.0), 1e-200): 0.0,
    ("F''", (1.8, 0.0, 2.0), -5e-324): 0.0,
    ("eta", (1.5, 1.0, 1.0), 1e300): complex(-math.inf, 0.0),
    ("phi_1", (1.5, 3.0, 1.0), 1e300): 0j,
    ("phi_0", (1.5, 3.0, 1.0), 1e300): 1 + 0j,
}


def test_pointwise_recipes_on_the_whole_finite_line():
    # the seven pointwise recipes at the extremes of the finite line, with
    # warnings as errors: no NaN, +-inf only where the value is past the
    # largest double, and a scalar call gives the value the array does
    recipes = {
        "F": kernel_F,
        "F'": kernel_F_prime,
        "F''": kernel_F_second,
        "G": lambda p, x: compensator_density(p, x, 1e-3),
        "nu": nu_density,
        "eta": levy_symbol,
        "phi_1": lambda p, u: char_function(p, u, 1.0),
        "phi_0": lambda p, u: char_function(p, u, 0.0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for triplet in [(1.5, 1.0, 1.0), (1.3, 3.0, 1.0), (1.8, 0.0, 2.0)]:
            params = derive_params(*triplet)
            for name, recipe in recipes.items():
                values = recipe(params, _EXTREMES)
                assert not np.any(np.isnan(values)), (name, triplet)
                assert np.array_equal(
                    [recipe(params, float(x)) for x in _EXTREMES], values)
                for (key, at, x), want in _EXTREME_VALUES.items():
                    if (key, at) == (name, triplet):
                        got = values[_EXTREMES == x][0]
                        assert got == pytest.approx(want, rel=1e-15) \
                            if np.isfinite(want) else got == want
                        assert math.copysign(1.0, got.real) \
                            == math.copysign(1.0, want.real)


def test_row_tiles_cover_the_rows_in_order():
    for n_rows in (1, 5, 341, 342, 1000, 40_000):
        for width in (0, 1, 48, 64, 341, _PAIR_TILE, _PAIR_TILE + 1,
                      10 * _PAIR_TILE):
            tiles = _row_tiles(n_rows, width)
            assert [i for rows in tiles for i in range(n_rows)[rows]] \
                == list(range(n_rows))
            height = max(1, _PAIR_TILE // max(1, width))
            assert all(rows.stop - rows.start == height
                       for rows in tiles[:-1])
            assert 1 <= tiles[-1].stop - tiles[-1].start <= height
    assert _row_tiles(1000, 48)[0] == slice(0, 341)
    assert _row_tiles(10, 0) == [slice(0, 10)]
    assert _row_tiles(3, _PAIR_TILE + 1) == [slice(0, 1), slice(1, 2),
                                              slice(2, 3)]
    assert _row_tiles(0, 64) == []


def test_kernel_symmetric_even_and_nonnegative():
    xs = np.linspace(-6, 6, 201)
    assert np.allclose(kernel_F(SYM, xs), kernel_F(SYM, -xs))
    for p in (SYM, SKEW, LOW, derive_params(1.8, 0.0, 1.0)):
        assert np.all(kernel_F(p, xs) >= 0.0)


def test_kernel_prime_rejects_origin():
    with pytest.raises(ValueError):
        kernel_F_prime(SKEW, 0.0)
    with pytest.raises(ValueError):
        kernel_F_prime(SKEW, np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        kernel_F_second(SKEW, 0.0)


def test_kernel_prime_one_sided_and_sign():
    right_only = derive_params(1.5, 1.0, 0.0)
    assert np.all(kernel_F_prime(right_only, np.linspace(0.1, 4, 9)) == 0.0)
    xs = np.concatenate([np.linspace(-4, -0.1, 9), np.linspace(0.1, 4, 9)])
    assert np.all(kernel_F_prime(SYM, xs) * np.sign(xs) > 0.0)


def test_kernel_prime_central_difference_order():
    x = 1.0
    errs = []
    for delta in (1e-3, 1e-4, 1e-5):
        fd = (kernel_F(SKEW, x + delta) - kernel_F(SKEW, x - delta)) / (2 * delta)
        errs.append(abs(fd - kernel_F_prime(SKEW, x)))
    assert errs[0] > errs[1] > errs[2]
    # second-order rate: each decade in delta gains ~two in accuracy; at
    # the smallest delta cancellation noise (~1e-13) can only help
    assert errs[1] / errs[0] == pytest.approx(1e-2, rel=0.2)
    assert errs[2] / errs[1] <= 2e-2


def test_kernel_second_matches_difference_quotient():
    for p, x in [(SKEW, 1.0), (LOW, -0.6)]:
        delta = 1e-4
        fd = (kernel_F(p, x + delta) - 2 * kernel_F(p, x)
              + kernel_F(p, x - delta)) / delta**2
        assert kernel_F_second(p, x) == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_power_subadditivity(alpha):
    xs = np.linspace(-5, 5, 81)
    X, Y = np.meshgrid(xs, xs)
    lhs = np.abs(X + Y) ** (alpha - 1)
    rhs = np.abs(X) ** (alpha - 1) + np.abs(Y) ** (alpha - 1)
    assert np.all(lhs <= rhs + 1e-14)


@pytest.mark.parametrize("alpha,c_plus,c_minus", [
    (1.3, 2.0, 1.0), (1.5, 1.0, 1.0), (1.7, 1.0, 3.0),
    (1.2, 1.0, 1.0), (1.8, 3.0, 1.0), (1.5, 1.0, 0.0),
])
@pytest.mark.parametrize("knob", [0.5, 0.8])
def test_kernel_increment_growth_bound(alpha, c_plus, c_minus, knob):
    # |F(x+h)-F(x)|^2 <= 8 D^2 (|x|^(a-e0-2)|h|^(a+e0) ^ |h|^(2a-2)),
    # the integrand bound behind the martingale's L^2 estimate; e0 ranges
    # over the open interval (0, (a-1)^(2-a))
    p = derive_params(alpha, c_plus, c_minus)
    eps0 = knob * min(alpha - 1.0, 2.0 - alpha)
    xs = np.array([0.05, 0.25, 1.0, 2.7])
    xs = np.concatenate([xs, -xs])
    hs = np.geomspace(1e-4, 30, 60)
    hs = np.concatenate([hs, -hs])
    X, H = np.meshgrid(xs, hs, indexing="ij")
    lhs = (kernel_F(p, X + H) - kernel_F(p, X)) ** 2
    rhs = 8.0 * p.big_d**2 * np.minimum(
        np.abs(X) ** (alpha - eps0 - 2.0) * np.abs(H) ** (alpha + eps0),
        np.abs(H) ** (2.0 * alpha - 2.0))
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


# -------------------------------------------------------------- convolution

def _convolve_oracle(params, phi, x, radius):
    pieces = []
    cut = min(max(x, -radius), radius)
    for lo, hi in [(-radius, cut), (cut, radius)]:
        if hi > lo:
            val, _ = integrate.quad(lambda y: kernel_F(params, x - y) * phi(y),
                                    lo, hi, epsabs=1e-14, epsrel=1e-13,
                                    limit=500)
            pieces.append(val)
    return sum(pieces)


@pytest.mark.parametrize("params", [SKEW, LOW, derive_params(1.8, 0.0, 1.0)])
def test_kernel_convolve_matches_adaptive_quadrature(params):
    phi = lambda y: standard_bump(y / 2.0)
    for x in (0.0, 0.7, -1.3, 1.9, 2.02, 2.5, -4.0):
        direct = kernel_convolve(params, phi, x, 2.0)
        oracle = _convolve_oracle(params, phi, x, 2.0)
        assert direct == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_kernel_convolve_refuses_bad_radius(radius):
    # an infinite radius would put the rules' nodes at inf
    with pytest.raises(ValueError, match="radius"):
        kernel_convolve(SYM, standard_bump, np.array([0.0, 3.0]), radius)


def test_kernel_convolve_vectorized_consistent():
    phi = lambda y: standard_bump(y / 2.0)
    xs = np.array([-3.0, -0.4, 0.0, 1.1, 2.8])
    batch = kernel_convolve(SKEW, phi, xs, 2.0)
    singles = np.array([kernel_convolve(SKEW, phi, float(x), 2.0) for x in xs])
    assert np.allclose(batch, singles, rtol=1e-14)


def test_kernel_convolve_tiles_keep_the_bits():
    # both rules walk the points in row tiles of _PAIR_TILE (point, node)
    # pairs and reduce each row on its own, so a batch spanning several
    # tiles of each rule, its branches interleaved, gives every point the
    # floats of its own call, at the support's edges and centre too
    phi = lambda y: standard_bump(y / 2.0)
    inside_tile = _PAIR_TILE // len(_jacobi_rule(SKEW.alpha)[0])
    outside_tile = _PAIR_TILE // len(_legendre_rule()[0])
    inside = np.concatenate([np.linspace(-1.99, 1.99, 3 * inside_tile + 7),
                             [0.0, -0.0]])
    outside = np.concatenate([np.linspace(2.0, 40.0, 3 * outside_tile + 5),
                              -np.linspace(2.0, 40.0, 11)])
    xs = np.random.default_rng(3).permutation(np.concatenate([inside,
                                                              outside]))
    batch = kernel_convolve(SKEW, phi, xs, 2.0)
    singles = np.array([kernel_convolve(SKEW, phi, float(x), 2.0)
                        for x in xs])
    assert np.array_equal(batch, singles)


def test_kernel_convolve_tracks_kernel_growth():
    # against a unit-mass hump, (F * phi)(x)/F(x) -> 1 far from the support
    phi = lambda y: 0.5 * standard_bump(y / 2.0)
    for x in (60.0, -60.0):
        ratio = kernel_convolve(SKEW, phi, x, 2.0) / kernel_F(SKEW, x)
        assert ratio == pytest.approx(1.0, abs=1e-3)


def test_smooth_F_bound_and_symmetry():
    xs = np.linspace(-3, 3, 61)
    for n in (4, 64):
        moll = MollifierSpec(n)
        vals = kernel_convolve(SKEW, moll, xs, moll.width)
        bound = 2.0 * SKEW.big_d * (np.abs(xs) ** 0.5 + 1.0)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= bound)
    moll = MollifierSpec(16)
    sym_vals = kernel_convolve(SYM, moll, xs, moll.width)
    assert np.allclose(sym_vals, sym_vals[::-1], rtol=1e-12, atol=1e-14)


def test_smooth_F_converges_to_kernel():
    xs = np.linspace(-3, 3, 121)
    sups = []
    at_one = []
    for n in (4, 16, 64, 256):
        moll = MollifierSpec(n)
        smooth = kernel_convolve(SKEW, moll, xs, moll.width)
        sups.append(np.max(np.abs(smooth - kernel_F(SKEW, xs))))
        at_one.append(abs(kernel_convolve(SKEW, moll, 1.0, moll.width)
                          - kernel_F(SKEW, 1.0)))
    assert sups[0] > sups[1] > sups[2] > sups[3]
    assert at_one[0] > at_one[1] > at_one[2] > at_one[3]
    assert at_one[3] < at_one[0] / 6.0


def test_smooth_F_matches_adaptive_quadrature():
    moll = MollifierSpec(8)
    for x in (0.0, 0.4, -1.1):
        direct = kernel_convolve(LOW, moll, x, moll.width)
        oracle = _convolve_oracle(LOW, moll, x, moll.width)
        assert direct == pytest.approx(oracle, rel=1e-8)


# -------------------------------------------------------------- compensator

def test_compensator_domain_errors():
    with pytest.raises(ValueError):
        compensator_density(SYM, 1.0, 0.0)
    with pytest.raises(ValueError):
        compensator_density(SYM, 1.0, 1.5)


def test_compensator_symmetric_even():
    for x in (0.3, 1.7):
        left = compensator_density(SYM, -x, 1e-3)
        right = compensator_density(SYM, x, 1e-3)
        assert left == pytest.approx(right, rel=1e-9)


def test_compensator_brute_force_riemann():
    # 1e7-panel log-spaced midpoint Riemann sum, far past the analytic
    # tail's turnover, rebuilt here from the raw densities
    p, x, eps = SYM, 1.0, 1e-3
    fx = kernel_F(p, x)
    total = 0.0
    n_panels = 5_000_000  # per side
    edges = np.geomspace(eps, 1e8, n_panels + 1)
    for sign in (1.0, -1.0):
        for i in range(0, n_panels, 1_000_000):
            lo, hi = edges[i:i + 1_000_001][:-1], edges[i:i + 1_000_001][1:]
            mid = sign * 0.5 * (lo + hi)
            total += np.sum((kernel_F(p, x + mid) - fx) * nu_density(p, mid)
                            * (hi - lo))
    # remainder past 1e8: F(x+h) ~ D|h|^(a-1) against both tails
    total += 4.0 * p.big_d * p.c_plus * p.c_minus \
        / ((p.c_plus + p.c_minus) * 1e8) - fx * nu_tail_mass(p, 1e8)
    assert compensator_density(p, x, eps) == pytest.approx(total, rel=1e-4)


@pytest.mark.parametrize("params,x,eps", [
    (SKEW, 2.0, 1e-3),
    (LOW, -0.7, 1e-3),
    (derive_params(1.8, 1.0, 2.0), 1.3, 1e-4),
])
def test_compensator_generator_identity(params, x, eps):
    # the kernel is harmonic for the compensated generator away from 0, so
    # G_eps(x) = F'(x) int_{|h|>eps} h nu(dh) - (1/2) F''(x) sigma^2(eps)
    # up to the next Taylor term O(eps^(3-alpha))
    g = compensator_density(params, x, eps)
    pred = kernel_F_prime(params, x) * nu_tail_mean(params, eps) \
        - 0.5 * kernel_F_second(params, x) * small_jump_variance(params, eps)
    assert abs(g - pred) <= 1e-6 * max(1.0, abs(g))


def test_compensator_cauchy_in_eps_symmetric():
    # G_eps = -(1/2) F'' sigma^2(eps) + O(eps^(3-a)) here, so successive
    # differences shrink by 10^(2-a) ~ 0.32 per decade of eps
    vals = [compensator_density(SYM, 1.0, e) for e in (1e-2, 1e-3, 1e-4)]
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    assert d2 < 0.5 * d1


def test_compensator_compensated_cauchy_skewed():
    # for one-sided mass the raw G_eps inherits the diverging drift
    # compensation F'(x) (c+ - c-) eps^(1-a)/(a-1); subtracting it leaves
    # the vanishing small-jump remainder
    x = 1.0
    fp = kernel_F_prime(SKEW, x)
    vals = [compensator_density(SKEW, x, e) - fp * nu_tail_mean(SKEW, e)
            for e in (1e-2, 1e-3, 1e-4)]
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    assert d2 < 0.5 * d1
    cap = 0.75 * abs(kernel_F_second(SKEW, x)) * small_jump_variance(SKEW, 1e-4)
    assert abs(vals[2]) <= cap


# the paper's one-sided cases: spectrally positive and spectrally negative
POS = derive_params(1.5, 1.0, 0.0)
NEG = derive_params(1.5, 0.0, 1.0)
COMPENSATOR_CASES = [SYM, SKEW, LOW, POS, NEG, derive_params(1.8, 1.0, 2.0)]


def _compensator_reference(p, x, eps):
    # the definition, folded onto jump sizes u > eps and integrated by
    # adaptive quadrature per decade up to 1e16 (the rest is below 1e-15);
    # F(x +- u) - F(x) is formed without cancellation while x +- u keeps
    # the sign of x, which holds the far field to ~1e-8 relative
    fx = kernel_F(p, x)

    def diff(h):
        if x * (x + h) > 0.0:
            return fx * math.expm1((p.alpha - 1.0) * math.log1p(h / x))
        return kernel_F(p, x + h) - fx

    def integrand(u):
        return (p.c_plus * diff(u) + p.c_minus * diff(-u)) \
            * u ** (-1.0 - p.alpha)

    edges = np.geomspace(eps, 1e16, int(round(math.log10(1e16 / eps))) + 1)
    if eps < abs(x):
        edges = np.sort(np.append(edges, abs(x)))  # the kernel cusp
    return sum(integrate.quad(integrand, lo, hi, epsabs=1e-15,
                              epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("eps", [1e-3, 1e-2])
@pytest.mark.parametrize("params", COMPENSATOR_CASES)
def test_compensator_matches_definition(params, eps):
    # measured agreement <= 2e-12 absolute
    for x in (-7.3, -1.0, -0.3, -eps, -0.4 * eps, 0.0, 0.4 * eps, eps,
              1.7 * eps, 0.05, 1.0, 10.0):
        ref = _compensator_reference(params, x, eps)
        assert abs(compensator_density(params, x, eps) - ref) <= 1e-9, x


@pytest.mark.parametrize("params", COMPENSATOR_CASES)
def test_compensator_far_field(params):
    # far from the level, where an approximate tail beyond a fixed jump
    # cutoff breaks down; measured agreement <= 1.1e-8 relative
    for x in (100.0, -100.0, 300.0, -300.0, 1000.0, -1000.0):
        ref = _compensator_reference(params, x, 1e-3)
        g = compensator_density(params, x, 1e-3)
        assert abs(g - ref) <= 1e-6 * abs(ref), x


@pytest.mark.parametrize("params", COMPENSATOR_CASES)
def test_compensator_mirror_identity(params):
    mirrored = derive_params(params.alpha, params.c_minus, params.c_plus)
    x = np.concatenate([np.geomspace(1e-6, 1e3, 200), [1e-3, 0.0]])
    np.testing.assert_array_equal(compensator_density(params, -x, 1e-3),
                                  compensator_density(mirrored, x, 1e-3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", COMPENSATOR_CASES)
def test_compensator_continuous_at_zero_and_cutoff(params):
    eps = 1e-3
    scale = params.big_d * (params.c_plus + params.c_minus) / eps
    g0 = compensator_density(params, 0.0, eps)
    # G - G(0) = O(|x/eps|^(alpha-1)) at the origin
    for z in (1e-4, 1e-8, 1e-12):
        for x in (z * eps, -z * eps):
            assert abs(compensator_density(params, x, eps) - g0) \
                <= 2.0 * z ** (params.alpha - 1.0) * scale
    # the two closed forms meet at |x| = eps, where no warning may fire
    for side in (1.0, -1.0):
        at = compensator_density(params, side * eps, eps)
        for x in (side * eps * (1.0 - 1e-9), side * eps * (1.0 + 1e-9)):
            assert abs(compensator_density(params, x, eps) - at) \
                <= 1e-7 * scale


def test_compensator_scalar_and_array_shapes():
    assert isinstance(compensator_density(SYM, 0.3, 1e-3), float)
    assert isinstance(compensator_density(SYM, np.float64(0.0), 1e-3), float)
    batch = compensator_density(SKEW, np.array([[0.1, -0.2], [0.0, 4.0]]),
                                1e-3)
    assert isinstance(batch, np.ndarray) and batch.shape == (2, 2)
    assert batch[1, 1] == compensator_density(SKEW, 4.0, 1e-3)
