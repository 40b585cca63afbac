"""Acceptance checklist: one test per advertised guarantee.

Each test prints a single line

    [criterion N] <label>: PASS|FAIL (<measured> vs <threshold>)

so ``pytest tests/test_acceptance.py -s`` reads as a checklist (stdout is
captured otherwise; failing criteria still show their line in the failure
report).  Thresholds are asserted exactly as stated in the README table;
seeds are fixed so reruns are reproducible.  Every criterion that has an
experiment kind runs as a canned spec through ``run_experiment`` with the
README's seed, budget and parameter sets, so its recipe lives once, in the
runner; the test reads the measured values off the verdicts and asserts
the README bar itself.

Criterion 9's convergent half FAILS with the shipped integrand and is left
failing on purpose: the partial integrals of Re(1/(1 - eta(u))) converge
like u_max^(1-alpha), so the prescribed cutoff ladder 1e2/1e4/1e6 stops
short of the 1e-2 stability target for every alpha tested (worst at
alpha=1.2, where ~0.2 of the mass still sits past 1e6).  The test reports
the measured differences instead of loosening the target.

Criterion 5 (10^4 paths at n_steps=4096) dominates the file's time, then
criteria 6 and 4; the README's "Tests and acceptance" section gives the
measured timings. Those three carry the ``slow`` marker, which
``-m "not slow"`` deselects for a fast inner loop.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from quadrature_oracle import generator_quadrature
from stable_tanaka import (
    SimConfig,
    derive_params,
    nu_tail_mass,
    nu_tail_mean,
)
from stable_tanaka.experiments import run_experiment
from stable_tanaka.pathsim import (
    path_rng,
    sample_stable_increment,
    sample_terminal_jumpdecomp,
)
from stable_tanaka.spectral import Grid, generator_apply

SYM = derive_params(1.5, 1.0, 1.0)


def _report(n, label, ok, detail):
    print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# ------------------------------------------------------------- criterion 1

def test_criterion_01_generator_identity():
    # L(F * phi) = phi for the unit bump (support width 2), checked on
    # |x| <= 10 of a [-40, 40] grid at 2^14 points for five (alpha, beta)
    # corners of the parameter square, including both one-sided cases.
    pairs = [(1.2, 0.0), (1.5, 0.0), (1.5, 0.5), (1.8, -1.0), (1.3, 1.0)]
    worst = 0.0
    for alpha, beta in pairs:
        rep = run_experiment({
            "kind": "generator-identity",
            "params": {"alpha": alpha, "c_plus": 1.0 + beta,
                       "c_minus": 1.0 - beta},
            "options": {"half_width": 40.0, "n_points": 2 ** 14,
                        "bump_width": 2.0, "report_radius": 10.0,
                        "tolerance": 1e-2}})
        (v,) = rep.verdicts
        assert v.threshold == 1e-2
        worst = max(worst, v.measured)
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
            spectral = generator_apply(params, fv, grid)

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
        rep = run_experiment({
            "kind": "sampler-validation",
            "params": {"alpha": al, "c_plus": cp, "c_minus": cm},
            "options": {"n_samples": 100_000, "u": [0.5, 1.0, 2.0, 4.0],
                        "t": 1.0, "n_sigma": 4.0},
            "seed": 2718})
        assert len(rep.verdicts) == 4
        for v in rep.verdicts:
            assert v.threshold == 4.0
            worst = max(worst, v.measured)
    ok = worst <= 4.0
    _report(3, "characteristic function of increments", ok,
            f"worst |z| {worst:.2f} vs 4.00 over 4 parameter sets x 4 frequencies")
    assert ok


# ------------------------------------------------------------- criterion 4

@pytest.mark.slow
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

@pytest.mark.slow
def test_criterion_05_martingale_zero_mean():
    # 1e4 paths, T=1, n_steps=2^12, eps=1e-3: |mean M_t^a| <= 4 stderr at
    # a in {0, 0.5} x t in {0.25, 0.5, 1}.  This is the slow test (~70 s).
    rep = run_experiment({
        "kind": "martingale-zero-mean",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 4096, "eps": 1e-3},
        "options": {"n_paths": 10_000, "levels": [0.0, 0.5],
                    "checkpoints": [0.25, 0.5, 1.0], "n_sigma": 4.0},
        "seed": 31})
    assert len(rep.verdicts) == 6
    worst, details = 0.0, []
    for v in rep.verdicts:
        assert v.threshold == 4.0
        worst = max(worst, v.measured)
    for a in (0.0, 0.5):
        for t in (0.25, 0.5, 1.0):
            st = rep.statistics[f"martingale-mean-zero[a={a:g},t={t:g}]"]
            details.append(f"a={a:g},t={t:g}:z={st['mean'] / st['stderr']:+.2f}")
    ok = worst <= 4.0
    _report(5, "martingale part has zero mean", ok,
            f"worst |z| {worst:.2f} vs 4.00; " + " ".join(details))
    assert ok


# ------------------------------------------------------------- criterion 6

@pytest.mark.slow
def test_criterion_06_estimator_agreement():
    # Kernel-route vs occupation estimators at a=0 over three joint
    # refinements (eps halves, n_steps doubles, mollifier follows the
    # eps^(-1/2) tie), 1000 paths each: MSE strictly decreasing, finest
    # means within 10%.  The base sim block supplies only the horizon.
    rep = run_experiment({
        "kind": "estimator-agreement",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 4096, "eps": 1e-3},
        "options": {"n_paths": 1000, "level": 0.0, "means_tolerance": 0.10,
                    "schedule": [[4e-3, 1024], [2e-3, 2048], [1e-3, 4096]]},
        "seed": 1234})
    monotone_v, means_v = rep.verdicts
    assert monotone_v.threshold == 1.0
    assert means_v.threshold == 0.10
    mses = rep.statistics["mse"]
    monotone = mses[0] > mses[1] > mses[2]
    gap = means_v.measured
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
    rep = run_experiment({
        "kind": "occupation-formula",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 4096, "eps": 1e-3},
        "options": {"n_paths": 100, "hat_half_width": 1.0,
                    "hat_tolerance": 0.05, "unit_tolerance": 0.02},
        "seed": 42})
    hat_v, unit_v = rep.verdicts
    assert hat_v.threshold == 0.05
    assert unit_v.threshold == 0.02
    med_hat, med_unit = hat_v.measured, unit_v.measured
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
    rep = run_experiment({
        "kind": "moment-tests",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "options": {"n_samples": 100_000, "gammas": [0.3, 0.5, 0.7],
                    "times": [0.5, 1.0], "shifts": [0.0, 1.0],
                    "n_sigma": 4.0},
        "seed": 0})
    assert len(rep.verdicts) == 12
    ok, worst_ratio = True, 0.0
    for v in rep.verdicts:
        st = rep.statistics[v.criterion]
        assert v.threshold == st["bound"] * (
            1.0 + 4.0 * st["stderr"] / st["empirical"])
        ok = ok and v.measured <= v.threshold
        worst_ratio = max(worst_ratio, v.measured / v.threshold)
    _report(8, "uniform negative-moment bounds", ok,
            f"worst empirical/threshold ratio {worst_ratio:.3f} vs 1.0 "
            f"over 12 (gamma, t, x) combinations")
    assert ok


# ------------------------------------------------------------- criterion 9

def test_criterion_09_existence_integral_cutoffs():
    # Convergent side: partial integrals of Re(1/(1 - eta)) at cutoffs
    # 1e2/1e4/1e6 should successively differ by < 1e-2 for alpha in
    # {1.2, 1.5, 1.8}.  Divergent side: at alpha=0.9 every decade must add
    # more than 10%.  The convergent half FAILS honestly: the integrand
    # tail is ~(1/d)|u|^(-alpha), so the remainder past a cutoff U decays
    # like U^(1-alpha) and the ladder stops too early (see module
    # docstring); the numbers printed below are the measured differences.
    rep = run_experiment({
        "kind": "existence-scan",
        "options": {"alphas": [1.2, 1.5, 1.8, 0.9],
                    "cutoffs": [1e2, 1e4, 1e6], "c_plus": 1.0,
                    "c_minus": 1.0, "convergence_tolerance": 1e-2,
                    "growth_fraction": 0.10}})
    *convergent, divergent = rep.verdicts
    details, converged = [], True
    for alpha, v in zip((1.2, 1.5, 1.8), convergent):
        assert v.threshold == 1e-2
        diffs = rep.statistics[f"alpha={alpha:g}"]["diffs"]
        details.append(f"alpha={alpha:g} diffs {diffs[0]:.3g}/{diffs[1]:.3g}")
        converged = converged and v.measured < 1e-2
    assert divergent.threshold == 0.10
    assert len(rep.statistics["alpha=0.9"]["per_decade_growth"]) == 4
    growth = divergent.measured
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
    bars = {"mass": 1e-6, "symmetry": 1e-8, "selfsim": 1e-6}
    worst = dict.fromkeys(bars, 0.0)
    for al, cp, cm in paramsets:
        rep = run_experiment({
            "kind": "density-report",
            "params": {"alpha": al, "c_plus": cp, "c_minus": cm},
            "options": {"half_width": 80.0, "n_points": 2 ** 15,
                        "times": [0.5, 1.0, 2.0], "mass_tolerance": 1e-6,
                        "symmetry_tolerance": 1e-8,
                        "selfsim_tolerance": 1e-6}})
        assert len(rep.verdicts) == (9 if cp == cm else 6)
        for v in rep.verdicts:
            check = v.criterion[len("density-"):v.criterion.index("[")]
            assert v.threshold == bars[check]
            worst[check] = max(worst[check], v.measured)
    ok = all(worst[k] <= bars[k] for k in bars)
    _report(10, "transition-density integrity", ok,
            f"mass dev {worst['mass']:.1e} vs 1e-06; symmetry "
            f"{worst['symmetry']:.1e} vs 1e-08; self-similarity "
            f"{worst['selfsim']:.1e} vs 1e-06")
    assert worst["mass"] <= 1e-6
    assert worst["symmetry"] <= 1e-8
    assert worst["selfsim"] <= 1e-6
