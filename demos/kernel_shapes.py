"""Print the Tanaka kernel F, its derivatives, and the compensated
generator G_eps for a skewed stable process.

The one identity everything else in the package leans on:

    G_eps(x)  =  F'(x) * m(eps)  -  (1/2) F''(x) * s2(eps)  +  O(eps^(3-alpha))

where m(eps) is the mean of the removed small jumps' compensator and
s2(eps) their variance.  The table below shows the left and right sides
converging as eps shrinks.
"""

import numpy as np

from stable_tanaka import derive_params, nu_tail_mean, small_jump_variance
from stable_tanaka.kernel import (
    compensator_density,
    kernel_F,
    kernel_F_prime,
    kernel_F_second,
)

params = derive_params(alpha=1.5, c_plus=3.0, c_minus=1.0)
print(f"alpha={params.alpha}  beta={params.beta:+.3f}  "
      f"d={params.d:.6f}  D={params.big_d:.6f}")

print("\nkernel on a few points (note the one-sided weights; F' blows up "
      "at the level itself):")
print(f"  F(0) = {kernel_F(params, 0.0):.6f}")
for x in (-2.0, -0.5, 0.5, 2.0):
    print(f"  F({x:+.1f}) = {kernel_F(params, x):.6f}   "
          f"F'({x:+.1f}) = {kernel_F_prime(params, x):+.6f}")

print("\ncompensated generator at x = 0.7 against the Taylor form:")
x = 0.7
fp, fpp = kernel_F_prime(params, x), kernel_F_second(params, x)
print(f"  {'eps':>8}  {'G_eps(x)':>14}  {'Taylor form':>14}  {'diff':>10}")
for eps in (1e-1, 1e-2, 1e-3):
    lhs = compensator_density(params, x, eps)
    rhs = fp * nu_tail_mean(params, eps) - 0.5 * fpp * small_jump_variance(params, eps)
    print(f"  {eps:8.0e}  {lhs:14.8f}  {rhs:14.8f}  {abs(lhs - rhs):10.2e}")

# far from the level the compensator dies off like F'(x) m(eps), i.e.
# |x|^(alpha-2) (|x|^(alpha-3) when symmetric); close to it, the eps -> 0
# blowup is what feeds the local time
print("\nG_eps profile (eps = 1e-2):")
xs = np.array([-4.0, -1.0, -0.25, -0.05, 0.05, 0.25, 1.0, 4.0])
for xv in xs:
    print(f"  x={xv:+6.2f}   G={compensator_density(params, xv, 1e-2):+12.6f}")
