# Compare the two ways of getting X_1: the exact marginal sampler and the
# full jump-decomposition pathwise scheme.  They must agree in law -- the
# characteristic function is the cleanest place to see it, because the
# target exp(eta(u)) is known in closed form.
#
# Each pathwise draw simulates every jump above eps = 1e-3 (~8 ms a draw),
# so the sample is kept to 1 500 per sampler and the demo runs in well
# under 20 s; the z-scores are correspondingly coarse.

import numpy as np

from stable_tanaka import SimConfig, derive_params
from stable_tanaka.pathsim import (
    empirical_char_function,
    path_rng,
    sample_stable_increment,
    sample_terminal_jumpdecomp,
)
from stable_tanaka.spectral import char_function

params = derive_params(1.7, 1.0, 2.0)
n = 1_500

exact = sample_stable_increment(params, 1.0, path_rng(99), size=n)
cfg = SimConfig(T=1.0, n_steps=8, eps=1e-3, seed=99)
pathwise = sample_terminal_jumpdecomp(params, cfg, n)

print(f"alpha={params.alpha}, beta={params.beta:+.3f}, {n} samples each")
print(f"{'u':>4}  {'target CF':>22}  {'exact z':>8}  {'pathwise z':>10}")
for u in (0.5, 1.0, 2.0, 4.0):
    tgt = complex(char_function(params, u, 1.0))
    zs = []
    for draw in (exact, pathwise):
        est = empirical_char_function(draw, u)
        zr = abs(est.value.real - tgt.real) / est.stderr_real
        zi = abs(est.value.imag - tgt.imag) / est.stderr_imag
        zs.append(max(zr, zi))
    print(f"{u:4.1f}  {tgt.real:+.5f} {tgt.imag:+.5f}i  {zs[0]:8.2f}  {zs[1]:10.2f}")

print("\nquantiles (exact vs pathwise):")
for q in (1, 25, 50, 75, 99):
    a, b = np.percentile(exact, q), np.percentile(pathwise, q)
    print(f"  q{q:02d}  {a:+9.4f}  {b:+9.4f}")
