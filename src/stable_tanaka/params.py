"""Parameter triplets for strictly stable processes with index in (1, 2).

A process here is determined by the stability index ``alpha`` and the two
jump-intensity coefficients ``c_plus`` and ``c_minus`` of the Levy density

    nu(dh) = c_plus * h**(-alpha-1) dh   on (0, inf)
             c_minus * |h|**(-alpha-1) dh  on (-inf, 0).

Everything else (skewness, scale, drift, kernel constants) is derived from
that triplet and cached on an immutable :class:`StableParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BETA_CONSISTENCY_RTOL = 1e-12


def gamma_reflect(z: float) -> float:
    """Gamma function for real non-integer arguments, negative ones included.

    Positive arguments go through ``math.gamma``; negative non-integer
    arguments use the reflection formula Gamma(z) = pi / (sin(pi z) *
    Gamma(1 - z)) with the right-hand Gamma evaluated through ``lgamma`` so
    no intermediate overflows.
    """
    if z > 0:
        return math.gamma(z)
    if z == math.floor(z):
        raise ValueError(f"gamma undefined at non-positive integer {z!r}")
    s = math.sin(math.pi * z)
    return math.pi / (s * math.exp(math.lgamma(1.0 - z)))


def stability_constant(alpha: float) -> float:
    """The normalization c(alpha) = Gamma(alpha + 1) * sin(pi alpha / 2) / pi.

    Valid for any non-integer index in (0, 2); it is what makes ``d`` below
    the natural scale of the Levy symbol.
    """
    if not 0.0 < alpha < 2.0 or alpha == 1.0:
        raise ValueError(f"stability index must lie in (0,1) or (1,2), got {alpha!r}")
    return math.gamma(alpha + 1.0) * math.sin(math.pi * alpha / 2.0) / math.pi


@dataclass(frozen=True)
class StableParams:
    """Immutable bundle of base and derived coefficients.

    Use :func:`derive_params` to construct one; the constructor itself only
    re-checks the documented invariants.
    """

    alpha: float
    c_plus: float
    c_minus: float
    beta: float
    d: float
    b_alpha: float
    c_alpha: float
    big_d: float

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie strictly inside (1, 2), got {self.alpha!r}")
        if self.c_plus < 0.0 or self.c_minus < 0.0:
            raise ValueError("jump coefficients must be nonnegative")
        total = self.c_plus + self.c_minus
        if not total > 0.0:
            raise ValueError("c_plus + c_minus must be positive")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta out of [-1, 1]: {self.beta!r}")
        if not math.isclose(self.beta * total, self.c_plus - self.c_minus,
                            rel_tol=_BETA_CONSISTENCY_RTOL, abs_tol=1e-305):
            raise ValueError("beta inconsistent with (c_plus - c_minus)/(c_plus + c_minus)")
        if not self.d > 0.0:
            raise ValueError("scale d must be positive")
        if not self.big_d > 0.0:
            raise ValueError("kernel constant big_d must be positive")

    @property
    def tan_half_pi_alpha(self) -> float:
        """tan(pi * alpha / 2); negative throughout (1, 2)."""
        return math.tan(math.pi * self.alpha / 2.0)


def derive_params(alpha: float, c_plus: float, c_minus: float) -> StableParams:
    """Derive the full coefficient set from (alpha, c_plus, c_minus).

    Parameters
    ----------
    alpha : float
        Stability index, strictly between 1 and 2.
    c_plus, c_minus : float
        Intensities of the positive and negative jump tails. Both must be
        nonnegative with a positive sum.

    Returns
    -------
    StableParams
        With the derived fields

        * ``beta``    -- skewness (c_plus - c_minus) / (c_plus + c_minus),
        * ``d``       -- symbol scale (c_plus + c_minus) / (2 c(alpha)),
        * ``b_alpha`` -- the drift -(c_plus - c_minus)/(alpha - 1) that makes
          the process strictly stable (zero mean for alpha > 1),
        * ``c_alpha`` -- the normalization c(alpha),
        * ``big_d``   -- the kernel amplitude c(-alpha) / (d (1 + beta^2
          tan^2(pi alpha / 2))), positive throughout the index range.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly inside (1, 2), got {alpha!r}")
    if c_plus < 0.0 or c_minus < 0.0 or not (c_plus + c_minus) > 0.0:
        raise ValueError("need c_plus >= 0, c_minus >= 0 and a positive sum")

    total = c_plus + c_minus
    beta = (c_plus - c_minus) / total
    c_alpha = stability_constant(alpha)
    d = total / (2.0 * c_alpha)
    b_alpha = -(c_plus - c_minus) / (alpha - 1.0)
    # c(-alpha) via the reflected gamma; both factors flip sign on (1, 2),
    # so the product stays positive.
    c_neg = gamma_reflect(1.0 - alpha) * math.sin(-math.pi * alpha / 2.0) / math.pi
    tan_term = math.tan(math.pi * alpha / 2.0)
    big_d = c_neg / (d * (1.0 + beta * beta * tan_term * tan_term))
    return StableParams(alpha=alpha, c_plus=c_plus, c_minus=c_minus, beta=beta,
                        d=d, b_alpha=b_alpha, c_alpha=c_alpha, big_d=big_d)


def rescale_params(params: StableParams, lam: float) -> StableParams:
    """Scale both jump intensities by ``lam`` (> 0)."""
    if not lam > 0.0:
        raise ValueError("scale factor must be positive")
    return derive_params(params.alpha, lam * params.c_plus, lam * params.c_minus)


def nu_density(params: StableParams, h):
    """Density of the jump measure at h (scalar or array, h != 0).

    c_plus * h**(-alpha-1) on the positive axis, c_minus * |h|**(-alpha-1)
    on the negative one.
    """
    h = np.asarray(h, dtype=float)
    coef = np.where(h > 0.0, params.c_plus, params.c_minus)
    out = coef * np.abs(h) ** (-params.alpha - 1.0)
    return out if out.ndim else float(out)


# Levy-measure integrals shared by the simulation and local-time layers.

def nu_tail_mass(params: StableParams, eps: float) -> float:
    """nu({|h| > eps}): the rate of jumps larger than the cutoff."""
    if not eps > 0.0:
        raise ValueError("cutoff must be positive")
    return (params.c_plus + params.c_minus) * eps ** (-params.alpha) / params.alpha


def nu_tail_mean(params: StableParams, eps: float) -> float:
    """Integral of h over {|h| > eps}; the compensator drift is its negative."""
    if not eps > 0.0:
        raise ValueError("cutoff must be positive")
    return (params.c_plus - params.c_minus) * eps ** (1.0 - params.alpha) / (params.alpha - 1.0)


def small_jump_variance(params: StableParams, eps: float) -> float:
    """Integral of h^2 over {|h| <= eps}: variance rate of the removed jumps."""
    if not eps > 0.0:
        raise ValueError("cutoff must be positive")
    return (params.c_plus + params.c_minus) * eps ** (2.0 - params.alpha) / (2.0 - params.alpha)


__all__ = [
    "StableParams",
    "derive_params",
    "rescale_params",
    "gamma_reflect",
    "stability_constant",
    "nu_density",
    "nu_tail_mass",
    "nu_tail_mean",
    "small_jump_variance",
]
