import dataclasses
import math

import pytest

from stable_tanaka.params import (
    StableParams,
    _gamma_reflect,
    derive_params,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
    stability_constant,
)

# High-precision references for the symmetric unit case alpha=1.5,
# c_plus=c_minus=1 (frozen from a 50-digit arbitrary-precision run).
C_ALPHA_15 = 0.29920671030107450845
D_15_SYM = 3.3421710328413340032
C_NEG_15 = 0.79788456080286535588
BIG_D_15_SYM = 0.23873241463784300365


def drift(p):
    """-(c+ - c-)/(alpha - 1): the drift that makes the process strictly
    stable (zero mean for alpha > 1)."""
    return -(p.c_plus - p.c_minus) / (p.alpha - 1.0)


def test_symmetric_unit_case_constants():
    p = derive_params(1.5, 1.0, 1.0)
    assert p.beta == 0.0
    assert drift(p) == 0.0
    assert stability_constant(p.alpha) == pytest.approx(C_ALPHA_15, rel=1e-14)
    assert p.d == pytest.approx(D_15_SYM, rel=1e-14)
    assert p.big_d == pytest.approx(BIG_D_15_SYM, rel=1e-14)


def test_skewed_case_exact_ratios():
    p = derive_params(1.5, 3.0, 1.0)
    assert p.beta == pytest.approx(0.5, abs=0.0)
    assert drift(p) == pytest.approx(-4.0, rel=1e-15)
    # doubling the total intensity doubles d
    assert p.d == pytest.approx(2.0 * D_15_SYM, rel=1e-13)
    assert p.big_d == pytest.approx(0.095492965855137201461, rel=1e-13)


def test_drift_makes_known_value():
    p = derive_params(1.5, 2.0, 1.0)
    assert p.beta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert drift(p) == pytest.approx(-2.0, rel=1e-15)


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.8, 1.95])
def test_gamma_product_identity(alpha):
    # -2 * Gamma(alpha) * c(-alpha) * cos(pi alpha / 2) == 1, the identity
    # tying the kernel amplitude back to the symbol normalization.
    c_neg = _gamma_reflect(1.0 - alpha) * math.sin(-math.pi * alpha / 2.0) / math.pi
    prod = -2.0 * math.gamma(alpha) * c_neg * math.cos(math.pi * alpha / 2.0)
    assert prod == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
@pytest.mark.parametrize("pair", [(1.0, 1.0), (2.0, 0.5), (0.0, 1.0), (1.0, 0.0)])
def test_big_d_positive_across_range(alpha, pair):
    p = derive_params(alpha, *pair)
    assert p.big_d > 0.0


def test_swap_sides_flips_beta_and_drift():
    p = derive_params(1.4, 2.5, 0.5)
    q = derive_params(1.4, 0.5, 2.5)
    assert q.beta == -p.beta
    assert drift(q) == -drift(p)
    assert q.d == pytest.approx(p.d, rel=1e-15)
    assert q.big_d == pytest.approx(p.big_d, rel=1e-13)


def test_rescaling_scales_d_only():
    # scaling both jump intensities by 5
    p = derive_params(1.6, 1.0, 2.0)
    q = derive_params(1.6, 5.0 * p.c_plus, 5.0 * p.c_minus)
    assert q.beta == pytest.approx(p.beta, abs=1e-16)
    assert q.d == pytest.approx(5.0 * p.d, rel=1e-14)
    assert drift(q) == pytest.approx(5.0 * drift(p), rel=1e-14)


def test_gamma_reflect_matches_direct_gamma():
    for z in (0.5, 1.5, 3.25):
        assert _gamma_reflect(z) == pytest.approx(math.gamma(z), rel=1e-15)
    # Gamma(-0.5) = -2 sqrt(pi)
    assert _gamma_reflect(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)
    assert C_NEG_15 == pytest.approx(
        _gamma_reflect(-0.5) * math.sin(-0.75 * math.pi) / math.pi, rel=1e-14
    )


def test_gamma_reflect_rejects_poles():
    with pytest.raises(ValueError):
        _gamma_reflect(0.0)
    with pytest.raises(ValueError):
        _gamma_reflect(-3.0)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 2.5, -1.5])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ValueError):
        derive_params(alpha, 1.0, 1.0)


def test_bad_intensities_rejected():
    with pytest.raises(ValueError):
        derive_params(1.5, -1.0, 2.0)
    with pytest.raises(ValueError):
        derive_params(1.5, 0.0, 0.0)


def test_inconsistent_beta_rejected():
    good = derive_params(1.5, 3.0, 1.0)
    with pytest.raises(ValueError):
        StableParams(alpha=good.alpha, c_plus=good.c_plus, c_minus=good.c_minus,
                     beta=0.49, d=good.d, big_d=good.big_d)


def test_params_frozen():
    p = derive_params(1.5, 1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 1.6


def test_levy_measure_integrals_against_quadrature():
    # crude Riemann check of the closed forms on a log grid
    import numpy as np

    p = derive_params(1.5, 2.0, 1.0)
    eps = 0.3
    # upper limit 1e14 keeps the truncated part of the h**(-3/2) mean
    # integrand below the comparison tolerance
    h = np.exp(np.linspace(math.log(eps), math.log(1e14), 400_001))
    dens_plus = p.c_plus * h ** (-p.alpha - 1.0)
    dens_minus = p.c_minus * h ** (-p.alpha - 1.0)
    mass = np.trapezoid(dens_plus + dens_minus, h)
    mean = np.trapezoid((dens_plus - dens_minus) * h, h)
    assert nu_tail_mass(p, eps) == pytest.approx(mass, rel=1e-6)
    assert nu_tail_mean(p, eps) == pytest.approx(mean, rel=1e-6)

    h2 = np.exp(np.linspace(math.log(1e-12), math.log(eps), 400_001))
    var = np.trapezoid((p.c_plus + p.c_minus) * h2 ** (1.0 - p.alpha), h2)
    assert small_jump_variance(p, eps) == pytest.approx(var, rel=1e-5)


def test_levy_measure_scaling_laws():
    p = derive_params(1.5, 1.0, 1.0)
    assert nu_tail_mass(p, 2e-3) == pytest.approx(
        2.0 ** (-1.5) * nu_tail_mass(p, 1e-3), rel=1e-12)
    assert small_jump_variance(p, 2e-3) == pytest.approx(
        2.0 ** 0.5 * small_jump_variance(p, 1e-3), rel=1e-12)
    with pytest.raises(ValueError):
        nu_tail_mass(p, 0.0)
    with pytest.raises(ValueError):
        nu_tail_mean(p, -1.0)
