"""Monte Carlo check that the martingale part of the Tanaka decomposition
really has mean zero, and that its size obeys the closed-form bound.

F(X_t - a) - F(X_0 - a) splits into local time (nonnegative, grows) plus
a martingale M (mean zero, fluctuates).  Averaging M over paths at a few
checkpoints makes the split visible; the last line compares E[M^2]
against the closed-form bound used to size Monte Carlo studies.
"""

import numpy as np

from stable_tanaka import SimConfig, derive_params
from stable_tanaka.localtime import martingale_l2_bound, martingale_part
from stable_tanaka.pathsim import simulate_path_jumpdecomp

params = derive_params(1.5, 1.0, 1.0)
cfg = SimConfig(T=1.0, n_steps=1024, eps=1e-2, seed=2025)

n_paths = 400
checkpoints = (0.25, 0.5, 1.0)
samples = {t: [] for t in checkpoints}
for i in range(n_paths):
    path = simulate_path_jumpdecomp(params, cfg, path_index=i)
    # M at every checkpoint from one walk over the path: one row each
    m = martingale_part(params, path, 0.0, checkpoints=checkpoints)
    for t, value in zip(checkpoints, m):
        samples[t].append(float(value))

print(f"{n_paths} paths, a = 0:")
for t in checkpoints:
    arr = np.asarray(samples[t])
    se = arr.std(ddof=1) / np.sqrt(n_paths)
    print(f"  t={t:<5} mean M = {arr.mean():+.5f} +- {se:.5f}   "
          f"(z = {arr.mean() / se:+.2f})")

m2 = float(np.mean(np.square(samples[1.0])))
bound = martingale_l2_bound(params, 1.0)
print(f"\nE[M_1^2] = {m2:.4f}   closed-form bound {bound:.2f}   "
      f"(bound is intentionally conservative)")
