"""Estimate the local-time profile a -> L_1^a of one path through both
estimators and print them side by side.

The mollified-occupation curve is the smooth reference; the kernel-route
(Tanaka) curve is unbiased but noisy path by path -- the point of the
comparison table at the bottom is to see the two agree in the mean as the
discretization refines, which is exactly what the estimator-agreement
experiment asserts at scale.
"""

import argparse
import warnings

import numpy as np

from stable_tanaka import SimConfig, derive_params
from stable_tanaka.localtime import (
    default_mollifier,
    occupation_curve,
    tanaka_curve,
)
from stable_tanaka.pathsim import simulate_path_jumpdecomp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--n-steps", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--path-index", type=int, default=3)
    args = ap.parse_args()

    params = derive_params(args.alpha, 1.0, 1.0)
    cfg = SimConfig(T=1.0, n_steps=args.n_steps, eps=args.eps, seed=args.seed)
    path = simulate_path_jumpdecomp(params, cfg, path_index=args.path_index)

    # dense grid for honest curve integrals; every 40th row for display
    a_grid = np.linspace(-2.0, 2.0, 801)
    moll = default_mollifier(cfg.eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        occ = occupation_curve(path, a_grid, moll)
        tan = tanaka_curve(params, path, a_grid)

    print(f"path {args.path_index}: range [{path.values.min():+.3f}, "
          f"{path.values.max():+.3f}], {len(path.jump_times)} jumps\n")
    print(f"{'level a':>8}  {'occupation':>11}  {'kernel route':>12}")
    for a, o, t in zip(a_grid[::40], occ[::40], tan[::40]):
        bar = "#" * int(round(40 * max(o, 0.0)))
        print(f"{a:8.2f}  {o:11.4f}  {t:12.4f}  {bar}")

    print(f"\ncurve integrals (both should be close to the time the path "
          f"spends in [-2, 2]):")
    print(f"  occupation  {np.trapezoid(occ, a_grid):.4f}")
    print(f"  kernel      {np.trapezoid(tan, a_grid):.4f}")
    inside = (path.values[:-1] >= -2) & (path.values[:-1] <= 2)
    print(f"  time in window  {np.diff(path.times)[inside].sum():.4f}")


if __name__ == "__main__":
    main()
