"""Spectral transition densities: peaks, tails, and the self-similarity
collapse p_t(x) = t^(-1/alpha) p_1(t^(-1/alpha) x).

Run with no arguments for the default parameter tour, or pass
``alpha c_plus c_minus`` to look at one family.
"""

import sys

import numpy as np

from stable_tanaka import derive_params
from stable_tanaka.spectral import Grid, transition_density


def portrait(alpha, c_plus, c_minus):
    params = derive_params(alpha, c_plus, c_minus)
    grid = Grid(80.0, 2 ** 14)
    print(f"\n== alpha={alpha}  c+={c_plus}  c-={c_minus}  (beta={params.beta:+.2f})")
    for t in (0.25, 1.0, 4.0):
        vals = transition_density(params, t, grid)
        j = int(np.argmax(vals))
        mass = float(np.sum(vals) * grid.spacing)
        # one-decade tail ratio measures the |x|^(-1-alpha) falloff
        jr = np.searchsorted(grid.points, [4.0, 40.0])
        ratio = vals[jr[0]] / vals[jr[1]]
        print(f"  t={t:<5} peak {vals[j]:.5f} at x={grid.points[j]:+.3f}   "
              f"mass {mass:.9f}   p(4)/p(40) = {ratio:8.1f} "
              f"(pure power law would give {10 ** (1 + alpha):.1f})")

    # collapse: scaled copies of p_t should all match p_1 on the dual grid
    worst = 0.0
    for t in (0.25, 4.0):
        s = t ** (-1.0 / alpha)
        den = transition_density(params, t, grid)
        dual = Grid(grid.half_width * s, grid.n_points)
        unit = transition_density(params, 1.0, dual)
        worst = max(worst, float(np.max(np.abs(den - s * unit))))
    print(f"  self-similarity collapse residual: {worst:.2e}")


if len(sys.argv) == 4:
    portrait(float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]))
else:
    portrait(1.5, 1.0, 1.0)
    portrait(1.5, 3.0, 1.0)   # skewed: peak drifts off zero
    portrait(1.2, 1.0, 1.0)   # heavier tails, flatter peak
