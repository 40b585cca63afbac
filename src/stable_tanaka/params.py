"""Parameter triplets for strictly stable processes with index in (1, 2).

A process here is determined by the stability index ``alpha`` and the two
jump-intensity coefficients ``c_plus`` and ``c_minus`` of the Levy density

    nu(dh) = c_plus * h**(-alpha-1) dh   on (0, inf)
             c_minus * |h|**(-alpha-1) dh  on (-inf, 0).

Everything else is derived from that triplet, once, when a
:class:`StableParams` is built: the skewness ``beta`` and symbol scale
``d`` by :func:`symbol_coefficients` (shared with the existence integral,
which also takes indices below 1), and the kernel amplitude ``big_d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def stability_constant(alpha: float) -> float:
    """The normalization c(alpha) = Gamma(alpha + 1) * sin(pi alpha / 2) / pi.

    Valid for any non-integer index in (0, 2); it is what makes ``d`` below
    the natural scale of the Levy symbol.
    """
    if not 0.0 < alpha < 2.0 or alpha == 1.0:
        raise ValueError(f"stability index must lie in (0,1) or (1,2), got {alpha!r}")
    return math.gamma(alpha + 1.0) * math.sin(math.pi * alpha / 2.0) / math.pi


def symbol_coefficients(alpha: float, c_plus: float,
                        c_minus: float) -> tuple[float, float]:
    """The skewness and scale (beta, d) of the Levy symbol
    eta(u) = -d |u|^alpha (1 - i beta sgn(u) tan(pi alpha / 2)):

    * ``beta`` = (c_plus - c_minus) / (c_plus + c_minus),
    * ``d``    = (c_plus + c_minus) / (2 c(alpha)).

    ``alpha`` may lie in (0, 1) or (1, 2); the intensities must be
    nonnegative with a positive sum.
    """
    total = c_plus + c_minus
    if c_plus < 0.0 or c_minus < 0.0 or not total > 0.0:
        raise ValueError("need c_plus >= 0, c_minus >= 0 and a positive sum")
    return (c_plus - c_minus) / total, total / (2.0 * stability_constant(alpha))


@dataclass(frozen=True)
class StableParams:
    """The triplet ``(alpha, c_plus, c_minus)`` and its derived coefficients.

    Parameters
    ----------
    alpha : float
        Stability index, strictly between 1 and 2.
    c_plus, c_minus : float
        Intensities of the positive and negative jump tails. Both must be
        nonnegative with a positive sum.

    Construction derives, and a triplet whose derived fields are not
    finite (or ``d``, ``big_d`` not positive) is refused with ValueError:

    * ``beta``  -- skewness (c_plus - c_minus) / (c_plus + c_minus),
    * ``d``     -- symbol scale (c_plus + c_minus) / (2 c(alpha)),
    * ``big_d`` -- the kernel amplitude c(-alpha) / (d (1 + beta^2
      tan^2(pi alpha / 2))), positive throughout the index range, where
      c(-alpha) = Gamma(1 - alpha) sin(-pi alpha / 2) / pi satisfies
      -2 Gamma(alpha) c(-alpha) cos(pi alpha / 2) = 1.

    ``dataclasses.replace`` on a base field derives the rest anew.
    """

    alpha: float
    c_plus: float
    c_minus: float
    beta: float = field(init=False)
    d: float = field(init=False)
    big_d: float = field(init=False)

    def __post_init__(self):
        alpha = self.alpha
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"alpha must lie strictly inside (1, 2), got {alpha!r}")
        beta, d = symbol_coefficients(alpha, self.c_plus, self.c_minus)
        # c(-alpha) with Gamma(1 - alpha) by reflection, 1 - alpha being a
        # negative non-integer: Gamma(z) = pi / (sin(pi z) Gamma(1 - z)).
        # Both factors flip sign on (1, 2), so the product stays positive.
        z = 1.0 - alpha
        c_neg = math.pi / (math.sin(math.pi * z) * math.exp(math.lgamma(1.0 - z))) \
            * math.sin(-math.pi * alpha / 2.0) / math.pi
        tan_term = math.tan(math.pi * alpha / 2.0)
        big_d = c_neg / (d * (1.0 + beta * beta * tan_term * tan_term))
        if not (math.isfinite(beta) and 0.0 < d < math.inf
                and 0.0 < big_d < math.inf):
            raise ValueError(
                f"intensities ({self.c_plus!r}, {self.c_minus!r}) give beta="
                f"{beta!r}, d={d!r}, big_d={big_d!r}; all must be finite "
                f"with d and big_d positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "big_d", big_d)

    @property
    def tan_half_pi_alpha(self) -> float:
        """tan(pi * alpha / 2); negative throughout (1, 2)."""
        return math.tan(math.pi * self.alpha / 2.0)


# the name the rest of the package, the demos and the README build with
derive_params = StableParams


def _by_sign(x, at_most_zero, above_zero):
    """The side coefficient at each x: ``above_zero`` where x > 0 and
    ``at_most_zero`` elsewhere, 0, -0 and NaN included. This is the one
    place that picks a coefficient by the side of x, with the kernel's
    left-continuous convention sgn(0) = -1 (immaterial at 0 itself, where
    |x|^(alpha-1) kills the factor): sgn(x) is ``_by_sign(x, -1.0, 1.0)``.

    When the two arms are one double, that double is the coefficient.
    Otherwise it comes from a two-entry table by the sign, at a third of
    the cost of np.where with scalar arms.
    """
    if at_most_zero == above_zero:
        return above_zero
    return np.array([at_most_zero, above_zero]).take(np.asarray(x) > 0.0)


def _scaled_power(coef, x, exponent):
    """coef |x|^exponent, the power by np.power, as ``nu_density`` and the
    kernel's derivatives form it. A power past the largest double gives
    +-inf without a warning, except where coef is 0: a side of the axis
    that carries nothing gives coef's own zero there, not 0 * inf = NaN.
    A NaN x gives NaN."""
    with np.errstate(over="ignore"):
        power = np.power(np.abs(x), exponent)
    return coef * np.where(np.isinf(power) & (coef == 0.0), 1.0, power)


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool: the
    one test of what may count points, steps or paths, or key a stream.
    A bool or a float would be taken for the integer it casts to."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def nu_density(params: StableParams, h):
    """Density of the jump measure at h (scalar or array, h != 0).

    c_plus * h**(-alpha-1) on the positive axis, c_minus * |h|**(-alpha-1)
    on the negative one. Near 0, past the largest double, it is inf, or 0
    on a side without jumps (``_scaled_power``).
    """
    h = np.asarray(h, dtype=float)
    out = _scaled_power(_by_sign(h, params.c_minus, params.c_plus), h,
                        -params.alpha - 1.0)
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
    "stability_constant",
    "symbol_coefficients",
    "nu_density",
    "nu_tail_mass",
    "nu_tail_mean",
    "small_jump_variance",
]
