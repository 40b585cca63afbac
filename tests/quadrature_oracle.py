"""The direct compensated-jump quadrature of the generator: the oracle
that acceptance criterion 2 and ``test_spectral.py`` check the package's
Fourier-multiplier generator against.

A helper module, not a test file: pytest collects nothing here. The
package itself never calls it, so it lives beside the tests that do.
"""

import numpy as np
from scipy import integrate

from stable_tanaka.params import StableParams, nu_density, small_jump_variance
from stable_tanaka.spectral import ToleranceError

# generator_quadrature's jump band. _H_MIN balances two error floors: the
# inner closure's next Taylor term, ~ (c_plus - c_minus) _H_MIN^(3-alpha),
# and below it the rounding noise of the compensated difference times nu.
_H_MIN, _H_MAX = 1e-4, 1e3


def generator_quadrature(params: StableParams, f, x: float, fprime, fsecond,
                         tol: float = 1e-8):
    """Pointwise generator by direct quadrature of the compensated jumps.

    Integrates {f(x+h) - f(x) - f'(x) h} against the jump density over
    1e-4 <= |h| <= 1e3 in per-decade panels (adaptive quadrature inside
    each) and closes the inner hole with the Taylor term f''(x)/2 times the
    small-jump variance. ``fprime`` and ``fsecond`` are f's exact first
    and second derivatives: an oracle takes no finite differences. Nothing
    is added for |h| > 1e3, so a linear f gives exactly zero; callers add
    the compensated tail beyond 1e3 themselves where they need it.

    Raises :class:`ToleranceError` when the summed quadrature error
    estimates exceed ``tol``.
    """
    fx, fp, fpp = f(x), fprime(x), fsecond(x)

    def compensated(h):
        return (f(x + h) - fx - fp * h) * nu_density(params, h)

    edges = np.geomspace(_H_MIN, _H_MAX, 8)  # one panel per decade
    value = 0.5 * fpp * small_jump_variance(params, _H_MIN)
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
    return value
