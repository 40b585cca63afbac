import dataclasses
import math

import pytest

from stable_tanaka.params import (
    StableParams,
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


def c_neg(p):
    """c(-alpha), recovered from the derived kernel amplitude."""
    tan_term = p.tan_half_pi_alpha
    return p.big_d * p.d * (1.0 + p.beta * p.beta * tan_term * tan_term)


def test_c_neg_from_big_d():
    # c(-1.5) = sqrt(2/pi), whatever the skew
    assert c_neg(derive_params(1.5, 1.0, 1.0)) == pytest.approx(C_NEG_15, rel=1e-14)
    assert c_neg(derive_params(1.5, 3.0, 1.0)) == pytest.approx(C_NEG_15, rel=1e-14)


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.8, 1.95])
def test_gamma_product_identity(alpha):
    # -2 * Gamma(alpha) * c(-alpha) * cos(pi alpha / 2) == 1, the identity
    # tying the kernel amplitude back to the symbol normalization.
    for pair in ((1.0, 1.0), (3.0, 1.0), (0.0, 2.0)):
        p = derive_params(alpha, *pair)
        prod = -2.0 * math.gamma(alpha) * c_neg(p) * math.cos(math.pi * alpha / 2.0)
        assert prod == pytest.approx(1.0, rel=1e-12)


# (beta, d, big_d) as float.hex, recorded from the constructor that took
# the derived fields as arguments; the derivation must keep every bit
DERIVED_BITS = {
    (1.5, 1.0, 1.0): ("0x0.0p+0", "0x1.abcc42a9d895bp+1", "0x1.e8ec8a4aeacc9p-3"),
    (1.5, 3.0, 1.0): ("0x1.0000000000000p-1", "0x1.abcc42a9d895bp+2", "0x1.8723a1d588a3ap-4"),
    (1.01, 2.0, 1.0): ("0x1.5555555555555p-2", "0x1.2c590f3070ccap+2", "0x1.ef6033df6a727p-7"),
    (1.2, 1.0, 0.0): ("0x1.0000000000000p+0", "0x1.7fc04fd30cc82p+0", "0x1.cbcfcb18e410dp-4"),
    (1.8, 0.0, 1.0): ("-0x1.0000000000000p+0", "0x1.841a35e1ccf57p+1", "0x1.58dbd852ab0ccp-3"),
    (1.99, 0.5, 2.0): ("-0x1.3333333333333p-1", "0x1.f8a5638d488e3p+6", "0x1.04d4e14363af2p-8"),
    (1.3, 0.001, 7.0): ("-0x1.ffda8e6388806p-1", "0x1.52855642ff686p+3", "0x1.87e70816cd198p-6"),
    (1.7, 1.0, 2.0): ("-0x1.5555555555555p-2", "0x1.ae10a8a4e57a4p+2", "0x1.6de466f7cc4c5p-4"),
}


@pytest.mark.parametrize("triplet", sorted(DERIVED_BITS))
def test_derived_fields_bits_pinned(triplet):
    p = StableParams(*triplet)
    assert (p.beta.hex(), p.d.hex(), p.big_d.hex()) == DERIVED_BITS[triplet]


def test_derived_fields_are_not_arguments():
    assert derive_params is StableParams
    with pytest.raises(TypeError):
        StableParams(1.5, 3.0, 1.0, 0.5)
    with pytest.raises(TypeError):
        StableParams(alpha=1.5, c_plus=3.0, c_minus=1.0, beta=0.49)
    assert [f.name for f in dataclasses.fields(StableParams) if f.init] \
        == ["alpha", "c_plus", "c_minus"]


def test_replace_derives_anew():
    p = derive_params(1.5, 1.0, 1.0)
    q = dataclasses.replace(p, c_plus=3.0)
    assert q == derive_params(1.5, 3.0, 1.0)
    assert (q.beta, q.d) == (0.5, 2.0 * p.d)
    with pytest.raises(ValueError):
        dataclasses.replace(p, beta=0.5)


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


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 2.5, -1.5])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ValueError):
        derive_params(alpha, 1.0, 1.0)


def test_bad_intensities_rejected():
    with pytest.raises(ValueError):
        derive_params(1.5, -1.0, 2.0)
    with pytest.raises(ValueError):
        derive_params(1.5, 0.0, 0.0)


# an intensity past the doubles, or one so small that the kernel
# amplitude 1/d overflows, derives a non-finite coefficient
@pytest.mark.parametrize("pair", [(math.inf, 1.0), (1.0, math.inf),
                                  (1e308, 1e308), (math.nan, 1.0),
                                  (1.0, math.nan), (1e-320, 0.0),
                                  (0.0, 5e-324)])
def test_non_finite_coefficients_rejected(pair):
    with pytest.raises(ValueError):
        derive_params(1.5, *pair)


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
    with pytest.raises(ValueError):
        small_jump_variance(p, 0.0)
