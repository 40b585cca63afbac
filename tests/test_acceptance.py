"""Acceptance checklist: one test per advertised guarantee.

Each test prints a single line

    [criterion N] <label>: PASS|FAIL (<measured> vs <threshold>)

so ``pytest tests/test_acceptance.py -s`` reads as a checklist (stdout is
captured otherwise; failing criteria still show their line in the failure
report).  Thresholds are asserted exactly as stated in the README table;
seeds are fixed so reruns are reproducible.

Criterion 9's convergent half FAILS with the shipped integrand and is left
failing on purpose: the partial integrals of Re(1/(1 - eta(u))) converge
like u_max^(1-alpha), so the prescribed cutoff ladder 1e2/1e4/1e6 stops
short of the 1e-2 stability target for every alpha tested (worst at
alpha=1.2, where ~0.2 of the mass still sits past 1e6).  The test reports
the measured differences instead of loosening the target.

The full file takes ~10 minutes; criterion 5 (10^4 paths at n_steps=4096)
dominates.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from stable_tanaka import (
    SimConfig,
    derive_params,
    nu_tail_mass,
    nu_tail_mean,
)
from stable_tanaka.kernel import kernel_convolve, standard_bump
from stable_tanaka.localtime import (
    default_a_grid,
    default_mollifier,
    hat_function,
    martingale_part,
    occupation_estimator,
    occupation_formula_check,
    tanaka_estimator,
)
from stable_tanaka.pathsim import (
    empirical_char_function,
    path_rng,
    sample_stable_increment,
    sample_terminal_jumpdecomp,
    simulate_path_jumpdecomp,
)
from stable_tanaka.spectral import (
    Grid,
    GridFunction,
    char_function,
    existence_integral,
    generator_apply,
    generator_apply_windowed,
    generator_quadrature,
    negative_moment_bound,
    transition_density,
)

SYM = derive_params(1.5, 1.0, 1.0)


def _report(n, label, ok, detail):
    print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# ------------------------------------------------------------- criterion 1

def test_criterion_01_generator_identity():
    # L(F * phi) = phi for the unit bump (support width 2), checked on
    # |x| <= 10 of a [-40, 40] grid at 2^14 points for five (alpha, beta)
    # corners of the parameter square, including both one-sided cases.
    pairs = [(1.2, 0.0), (1.5, 0.0), (1.5, 0.5), (1.8, -1.0), (1.3, 1.0)]
    grid = Grid(40.0, 2 ** 14)
    worst = 0.0
    for alpha, beta in pairs:
        params = derive_params(alpha, 1.0 + beta, 1.0 - beta)

        def smoothed(x, p=params):
            return kernel_convolve(p, standard_bump, x, radius=1.0)

        x_rep, applied = generator_apply_windowed(params, smoothed, grid)
        keep = np.abs(x_rep) <= 10.0
        target = standard_bump(x_rep[keep])
        rel = float(np.max(np.abs(applied[keep] - target))
                    / np.max(np.abs(target)))
        worst = max(worst, rel)
    ok = worst < 1e-2
    _report(1, "generator identity on mollified kernel", ok,
            f"worst rel sup {worst:.2e} vs 1e-02")
    assert ok


# ------------------------------------------------------------- criterion 2

def test_criterion_02_spectral_generator_matches_quadrature():
    # Fourier-multiplier generator against direct compensated-jump
    # quadrature on gaussian bumps: 20 sample points (10 per bump center),
    # sup-normalized agreement below 1e-4 for three parameter sets.
    paramsets = [(1.2, 1.0, 1.0), (1.5, 3.0, 1.0), (1.8, 1.0, 2.0)]
    grid = Grid(160.0, 2 ** 14)
    xg = grid.points
    worst = 0.0
    for al, cp, cm in paramsets:
        params = derive_params(al, cp, cm)
        for m in (0.0, 1.5):
            fv = np.exp(-0.5 * (xg - m) ** 2)
            spectral = generator_apply(params, GridFunction(grid, fv)).values

            f = lambda y, m=m: math.exp(-0.5 * (y - m) ** 2)
            fp = lambda y, m=m: -(y - m) * math.exp(-0.5 * (y - m) ** 2)
            fpp = lambda y, m=m: ((y - m) ** 2 - 1.0) * math.exp(-0.5 * (y - m) ** 2)
            diffs, scale = [], 0.0
            for target in m + np.linspace(-2.5, 2.5, 10):
                j = int(np.argmin(np.abs(xg - target)))
                direct = generator_quadrature(params, f, xg[j],
                                              fprime=fp, fsecond=fpp)
                # close the |h| > 1e3 band truncation with its exact
                # -f(x), -f'(x) h moments (f itself is ~0 out there)
                direct -= (f(xg[j]) * nu_tail_mass(params, 1e3)
                           + fp(xg[j]) * nu_tail_mean(params, 1e3))
                diffs.append(abs(spectral[j] - direct))
                scale = max(scale, abs(direct))
            worst = max(worst, max(diffs) / scale)
    ok = worst < 1e-4
    _report(2, "spectral generator vs direct quadrature", ok,
            f"worst normalized diff {worst:.2e} vs 1e-04")
    assert ok


# ------------------------------------------------------------- criterion 3

def test_criterion_03_increment_characteristic_function():
    # 1e5 exact-sampler increments per case; empirical CF at
    # u in {0.5, 1, 2, 4} within 4 sigma of exp(t eta(u)), componentwise.
    cases = [("symmetric", (1.5, 1.0, 1.0)), ("skewed", (1.5, 3.0, 1.0)),
             ("positive-only", (1.5, 2.0, 0.0)), ("negative-only", (1.5, 0.0, 2.0))]
    worst = 0.0
    for _label, (al, cp, cm) in cases:
        params = derive_params(al, cp, cm)
        x = sample_stable_increment(params, 1.0, path_rng(2718), size=100_000)
        for u in (0.5, 1.0, 2.0, 4.0):
            est = empirical_char_function(x, u)
            tgt = complex(char_function(params, u, 1.0))
            worst = max(worst,
                        abs(est.value.real - tgt.real) / est.stderr_real,
                        abs(est.value.imag - tgt.imag) / est.stderr_imag)
    ok = worst <= 4.0
    _report(3, "characteristic function of increments", ok,
            f"worst |z| {worst:.2f} vs 4.00 over 4 parameter sets x 4 frequencies")
    assert ok


# ------------------------------------------------------------- criterion 4

def test_criterion_04_terminal_law_ks():
    # Jump-decomposition terminal values (eps=1e-3, gaussian closure)
    # against the exact marginal sampler, 1e4 vs 1e4, two-sample KS.
    cfg = SimConfig(T=1.0, n_steps=16, eps=1e-3, seed=2024)
    jd = sample_terminal_jumpdecomp(SYM, cfg, 10_000)
    mg = sample_stable_increment(SYM, 1.0, path_rng(555), size=10_000)
    ks = sps.ks_2samp(jd, mg)
    ok = ks.pvalue > 0.001
    _report(4, "terminal law vs exact marginal (KS)", ok,
            f"p {ks.pvalue:.4f} vs 0.001, stat {ks.statistic:.4f}")
    assert ok


# ------------------------------------------------------------- criterion 5

def test_criterion_05_martingale_zero_mean():
    # 1e4 paths, T=1, n_steps=2^12, eps=1e-3: |mean M_t^a| <= 4 stderr at
    # a in {0, 0.5} x t in {0.25, 0.5, 1}.  This is the slow test (~6 min).
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=31)
    combos = [(a, t) for a in (0.0, 0.5) for t in (0.25, 0.5, 1.0)]
    sums = {c: [] for c in combos}
    for i in range(10_000):
        path = simulate_path_jumpdecomp(SYM, cfg, path_index=i)
        for a, t in combos:
            sums[(a, t)].append(martingale_part(SYM, path, a, t=t))
    worst, details = 0.0, []
    for (a, t), acc in sums.items():
        arr = np.asarray(acc)
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        z = arr.mean() / se
        details.append(f"a={a:g},t={t:g}:z={z:+.2f}")
        worst = max(worst, abs(z))
    ok = worst <= 4.0
    _report(5, "martingale part has zero mean", ok,
            f"worst |z| {worst:.2f} vs 4.00; " + " ".join(details))
    assert ok


# ------------------------------------------------------------- criterion 6

def test_criterion_06_estimator_agreement():
    # Kernel-route vs occupation estimators at a=0 over three joint
    # refinements (eps halves, n_steps doubles, mollifier follows the
    # eps^(-1/2) tie): MSE strictly decreasing, finest means within 10%.
    schedule = [(4e-3, 1024), (2e-3, 2048), (1e-3, 4096)]
    rows = []
    for eps, n_steps in schedule:
        cfg = SimConfig(T=1.0, n_steps=n_steps, eps=eps, seed=1234)
        moll = default_mollifier(eps)
        diffs, tan, occ = [], [], []
        with warnings.catch_warnings():
            # the coarsest level trips the narrow-support advisory
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(1000):
                path = simulate_path_jumpdecomp(SYM, cfg, path_index=i)
                tv = tanaka_estimator(SYM, path, 0.0).value
                ov = occupation_estimator(path, 0.0, moll).value
                diffs.append(tv - ov)
                tan.append(tv)
                occ.append(ov)
        rows.append((float(np.mean(np.square(diffs))),
                     float(np.mean(tan)), float(np.mean(occ))))
    mses = [r[0] for r in rows]
    monotone = mses[0] > mses[1] > mses[2]
    gap = abs(rows[-1][1] - rows[-1][2]) / rows[-1][2]
    ok = monotone and gap <= 0.10
    _report(6, "estimator agreement under refinement", ok,
            f"MSE {mses[0]:.4f}>{mses[1]:.4f}>{mses[2]:.4f} "
            f"({'monotone' if monotone else 'NOT monotone'}); "
            f"finest means gap {gap:.1%} vs 10%")
    assert monotone
    assert gap <= 0.10


# ------------------------------------------------------------- criterion 7

def test_criterion_07_occupation_formula():
    # Per-path residual between integral g(a) L^a da and the time integral
    # of g along the path, with L^a the mollified-occupation curve (the
    # estimator that implements the occupation-density definition the
    # formula is about): hat g median below 5% over 100 paths, g == 1
    # recovers the horizon within 2%.  The kernel-route estimator is
    # deliberately not held to this bar -- its per-level MC noise at the
    # default refinement is the ~10% effect criterion 6 budgets for
    # (measured hat median ~7% here), so a 5% per-path bar through it
    # would contradict that criterion's own tolerance.
    cfg = SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=42)
    moll = default_mollifier(cfg.eps)
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    hat_res, unit_res = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(100):
            path = simulate_path_jumpdecomp(SYM, cfg, path_index=i)
            grid = default_a_grid(path)
            g = hat_function(float(np.median(path.values)), 1.0)
            hat_res.append(occupation_formula_check(path, g, grid, moll))
            unit_res.append(occupation_formula_check(path, ones, grid, moll))
    med_hat = float(np.median(hat_res))
    med_unit = float(np.median(unit_res))
    ok = med_hat < 0.05 and med_unit < 0.02
    _report(7, "occupation-density formula per path", ok,
            f"hat median {med_hat:.2e} vs 5e-02; "
            f"unit median {med_unit:.2e} vs 2e-02, 100 paths")
    assert med_hat < 0.05
    assert med_unit < 0.02


# ------------------------------------------------------------- criterion 8

def test_criterion_08_negative_moment_bounds():
    # E|X_t - x|^(-gamma) <= S(alpha, gamma) t^(-gamma/alpha) for
    # (gamma, t, x) in {0.3, 0.5, 0.7} x {0.5, 1} x {0, 1}; the empirical
    # mean of 1e5 exact samples must sit below bound * (1 + 4 rel stderr).
    n = 100_000
    ok, worst_ratio = True, 0.0
    for it, t in enumerate((0.5, 1.0)):
        x_t = sample_stable_increment(SYM, t, path_rng(0, it), size=n)
        for gamma in (0.3, 0.5, 0.7):
            bound = negative_moment_bound(SYM, gamma, t)
            for x0 in (0.0, 1.0):
                vals = np.abs(x_t - x0) ** (-gamma)
                mean = float(vals.mean())
                se = float(vals.std(ddof=1)) / math.sqrt(n)
                thresh = bound * (1.0 + 4.0 * se / mean)
                ok = ok and mean <= thresh
                worst_ratio = max(worst_ratio, mean / thresh)
    _report(8, "uniform negative-moment bounds", ok,
            f"worst empirical/threshold ratio {worst_ratio:.3f} vs 1.0 "
            f"over 12 (gamma, t, x) combinations")
    assert ok


# ------------------------------------------------------------- criterion 9

def test_criterion_09_existence_integral_cutoffs():
    # Convergent side: partial integrals of Re(1/(1 - eta)) at cutoffs
    # 1e2/1e4/1e6 should successively differ by < 1e-2 for alpha in
    # {1.2, 1.5, 1.8}.  Divergent side: at alpha=0.9 every decade must add
    # at least 10%.  The convergent half FAILS honestly: the integrand
    # tail is ~(1/d)|u|^(-alpha), so the remainder past a cutoff U decays
    # like U^(1-alpha) and the ladder stops too early (see module
    # docstring); the numbers printed below are the measured differences.
    details, converged = [], True
    for alpha in (1.2, 1.5, 1.8):
        vals = [existence_integral(alpha, u_max) for u_max in (1e2, 1e4, 1e6)]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        details.append(f"alpha={alpha:g} diffs {diffs[0]:.3g}/{diffs[1]:.3g}")
        converged = converged and max(diffs) < 1e-2
    ladder = [existence_integral(0.9, u) for u in (1e2, 1e3, 1e4, 1e5, 1e6)]
    growth = min(b / a - 1.0 for a, b in zip(ladder, ladder[1:]))
    diverges = growth > 0.10
    ok = converged and diverges
    _report(9, "existence-integral cutoff stability", ok,
            "; ".join(details)
            + f"; alpha=0.9 min decade growth {growth:.1%} vs 10%")
    assert diverges
    assert converged, (
        "successive cutoff differences exceed 1e-2 (" + "; ".join(details)
        + "); the remainder past a cutoff U decays like U^(1-alpha), so the "
          "1e2/1e4/1e6 ladder is too short for every alpha tested")


# ------------------------------------------------------------ criterion 10

def test_criterion_10_density_checks():
    # Transition densities on [-80, 80] at 2^15 points, t in {0.5, 1, 2}:
    # unit mass to 1e-6, mirror symmetry to 1e-8 when beta = 0, and the
    # dual-grid self-similarity identity p_t(x) = s p_1(s x), s = t^(-1/alpha),
    # to 1e-6 (residuals sup-normalized by the density peak).
    paramsets = [(1.5, 1.0, 1.0), (1.5, 3.0, 1.0), (1.8, 1.0, 2.0)]
    grid = Grid(80.0, 2 ** 15)
    n = grid.n_points
    mirror = np.arange(n - 1, 0, -1)  # x_{n-j} = -x_j
    worst_mass = worst_sym = worst_self = 0.0
    for al, cp, cm in paramsets:
        params = derive_params(al, cp, cm)
        for t in (0.5, 1.0, 2.0):
            den = transition_density(params, t, grid)
            vals = den.values
            peak = float(np.max(np.abs(vals)))
            worst_mass = max(worst_mass,
                             abs(float(np.sum(vals) * grid.spacing) - 1.0))
            if params.beta == 0.0:
                worst_sym = max(worst_sym, float(
                    np.max(np.abs(vals[1:] - vals[mirror]))) / peak)
            s = t ** (-1.0 / params.alpha)
            dual = Grid(grid.half_width * s, n)
            unit = transition_density(params, 1.0, dual)
            worst_self = max(worst_self, float(
                np.max(np.abs(vals - s * unit.values))) / peak)
    ok = worst_mass <= 1e-6 and worst_sym <= 1e-8 and worst_self <= 1e-6
    _report(10, "transition-density integrity", ok,
            f"mass dev {worst_mass:.1e} vs 1e-06; symmetry {worst_sym:.1e} "
            f"vs 1e-08; self-similarity {worst_self:.1e} vs 1e-06")
    assert worst_mass <= 1e-6
    assert worst_sym <= 1e-8
    assert worst_self <= 1e-6
