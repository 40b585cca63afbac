"""Config-driven, seeded experiments with machine-readable reports.

An :class:`ExperimentSpec` names one of the eight experiment kinds, the
process parameters, and the sampling budget; :func:`run_experiment`
dispatches to the matching module routines and returns an
:class:`ExperimentReport` whose verdicts each carry a named criterion, the
measured value, the threshold, and the margin. Reports serialize
deterministically (sorted keys, shortest-repr floats, no NaN) so repeated
runs of the same spec are byte-identical and diffable in CI.

Spec files are JSON::

    {
      "kind": "martingale-zero-mean",
      "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
      "sim": {"T": 1.0, "n_steps": 512, "eps": 0.01},
      "seed": 314,
      "options": {"n_paths": 400, "levels": [0.0, 0.5]},
      "out_dir": "reports/mz"
    }

``params`` holds the jump-measure block (alpha, c_plus, c_minus), ``sim``
the path-simulation knobs (T, n_steps, eps, small_jump_mode, x0), and
``options`` the kind-specific budget and tolerances listed in
``OPTION_KEYS``. Statistical verdicts use 4-sigma bands for mean-zero
checks and p > 0.001 for KS-style comparisons; wall time is recorded on
the report object but excluded from the serialized bytes so determinism
survives.
"""

from __future__ import annotations

import json
import math
import platform
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .kernel import kernel_convolve, standard_bump
from .localtime import (
    default_a_grid,
    default_mollifier,
    hat_function,
    martingale_part,
    occupation_estimator,
    occupation_formula_check,
    tanaka_estimator,
)
from .params import derive_params
from .pathsim import (
    SimConfig,
    empirical_char_function,
    path_rng,
    sample_stable_increment,
    simulate_path_jumpdecomp,
)
from .spectral import (
    Grid,
    char_function,
    existence_integral,
    generator_apply_windowed,
    negative_moment_bound,
    transition_density,
)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "Verdict",
    "ExperimentReport",
    "run_experiment",
    "emit_report",
    "EXPERIMENT_KINDS",
    "OPTION_KEYS",
]


class ConfigError(ValueError):
    """Bad experiment configuration, reported before any compute."""


EXPERIMENT_KINDS = (
    "generator-identity",
    "martingale-zero-mean",
    "occupation-formula",
    "estimator-agreement",
    "sampler-validation",
    "moment-tests",
    "existence-scan",
    "density-report",
)

# which kinds need a params block / a sim block, and the option keys each
# kind understands (unknown keys are config errors -- they are invariably
# typos)
_NEEDS_PARAMS = {k: k != "existence-scan" for k in EXPERIMENT_KINDS}
_NEEDS_SIM = {
    "generator-identity": False,
    "martingale-zero-mean": True,
    "occupation-formula": True,
    "estimator-agreement": True,
    "sampler-validation": False,
    "moment-tests": False,
    "existence-scan": False,
    "density-report": False,
}
OPTION_KEYS = {
    "generator-identity": {"half_width", "n_points", "bump_width",
                           "report_radius", "tolerance"},
    "martingale-zero-mean": {"n_paths", "levels", "checkpoints",
                             "small_jump_in_M", "n_sigma"},
    "occupation-formula": {"n_paths", "hat_half_width", "hat_tolerance",
                           "unit_tolerance"},
    "estimator-agreement": {"n_paths", "schedule", "level",
                            "means_tolerance", "small_jump_in_M"},
    "sampler-validation": {"n_samples", "u", "t", "n_sigma"},
    "moment-tests": {"n_samples", "gammas", "times", "shifts", "n_sigma"},
    "existence-scan": {"alphas", "cutoffs", "c_plus", "c_minus",
                       "convergence_tolerance", "growth_fraction"},
    "density-report": {"half_width", "n_points", "times", "mass_tolerance",
                       "symmetry_tolerance", "selfsim_tolerance"},
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One named, seeded experiment configuration."""

    kind: str
    params: dict | None = None
    sim: dict | None = None
    options: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; expected one of "
                f"{', '.join(EXPERIMENT_KINDS)}")
        if _NEEDS_PARAMS[self.kind] and not self.params:
            raise ConfigError(f"{self.kind} needs a params block")
        if _NEEDS_SIM[self.kind] and not self.sim:
            raise ConfigError(f"{self.kind} needs a sim block")
        unknown = set(self.options) - OPTION_KEYS[self.kind]
        if unknown:
            raise ConfigError(
                f"unknown options for {self.kind}: {sorted(unknown)}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an integer in [0, 2^64)")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        if not isinstance(raw, dict):
            raise ConfigError("spec must be a JSON object")
        allowed = {"kind", "params", "sim", "options", "seed", "out_dir"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
        if "kind" not in raw:
            raise ConfigError("spec needs a kind")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"spec file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec file {path} is not valid JSON: {exc}")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return asdict(self)

    def derived_params(self):
        if self.params is None:
            return None
        block = dict(self.params)
        unknown = set(block) - {"alpha", "c_plus", "c_minus"}
        if unknown:
            raise ConfigError(f"unknown params fields: {sorted(unknown)}")
        try:
            return derive_params(block.pop("alpha"),
                                 block.get("c_plus", 1.0),
                                 block.get("c_minus", 1.0))
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad params block: {exc}")

    def sim_config(self) -> SimConfig:
        try:
            return SimConfig(seed=self.seed, **(self.sim or {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sim block: {exc}")


@dataclass(frozen=True)
class Verdict:
    """Pass/fail for one named criterion with its numeric margin.

    ``margin`` is how far inside the pass region the measurement landed
    (positive means pass), in the units of the measured quantity.
    """

    criterion: str
    measured: float
    threshold: float
    margin: float
    passed: bool

    def __post_init__(self):
        if not self.criterion:
            raise ValueError("verdict needs a criterion name")
        for label, v in (("measured", self.measured),
                         ("threshold", self.threshold),
                         ("margin", self.margin)):
            if not math.isfinite(v):
                raise ValueError(f"verdict {self.criterion}: {label} "
                                 f"must be finite, got {v!r}")

    @classmethod
    def at_most(cls, criterion, measured, threshold):
        return cls(criterion, float(measured), float(threshold),
                   float(threshold - measured), bool(measured <= threshold))

    @classmethod
    def at_least(cls, criterion, measured, threshold):
        return cls(criterion, float(measured), float(threshold),
                   float(measured - threshold), bool(measured >= threshold))


@dataclass
class ExperimentReport:
    """Everything one experiment produced, ready to serialize."""

    kind: str
    inputs: dict
    statistics: dict
    verdicts: list
    curves: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    versions: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary_lines(self):
        for v in self.verdicts:
            tag = "PASS" if v.passed else "FAIL"
            yield (f"[{tag}] {v.criterion}: measured {v.measured:.6g} "
                   f"vs threshold {v.threshold:.6g} (margin {v.margin:+.3g})")


def _versions() -> dict:
    from . import __version__  # deferred: this module is imported by the
    # package root before the version constant exists there
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "stable_tanaka": __version__,
    }


# ------------------------------------------------------------------ runners

def _opts(spec, **defaults):
    merged = dict(defaults)
    merged.update(spec.options)
    return merged


def _run_generator_identity(spec):
    o = _opts(spec, half_width=40.0, n_points=2 ** 14, bump_width=2.0,
              report_radius=10.0, tolerance=1e-2)
    params = spec.derived_params()
    w = float(o["bump_width"])
    if not w > 0:
        raise ConfigError("bump_width must be positive")

    def phi(x):
        return standard_bump(2.0 * np.asarray(x, dtype=float) / w)

    def smoothed(x):
        return kernel_convolve(params, phi, x, radius=w / 2.0)

    try:
        grid = Grid(float(o["half_width"]), int(o["n_points"]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    x_rep, applied = generator_apply_windowed(params, smoothed, grid)
    keep = np.abs(x_rep) <= float(o["report_radius"])
    x_keep = x_rep[keep]
    target = phi(x_keep)
    scale = float(np.max(np.abs(target)))
    sup = float(np.max(np.abs(applied[keep] - target))) / scale
    stats = {
        "sup_relative_error": sup,
        "report_points": int(keep.sum()),
        "scale": scale,
    }
    verdicts = [Verdict.at_most("generator-identity-sup", sup,
                                float(o["tolerance"]))]
    curves = {"identity": {
        "columns": ["x", "applied", "target"],
        "rows": np.column_stack([x_keep, applied[keep], target]),
    }}
    return stats, verdicts, curves


def _run_sampler_validation(spec):
    o = _opts(spec, n_samples=100_000, u=(0.5, 1.0, 2.0, 4.0), t=1.0,
              n_sigma=4.0)
    params = spec.derived_params()
    n = int(o["n_samples"])
    t = float(o["t"])
    if n < 1 or not t > 0:
        raise ConfigError("need n_samples >= 1 and t > 0")
    rng = path_rng(spec.seed)
    samples = sample_stable_increment(params, t, rng, size=n)
    stats, verdicts, rows = {}, [], []
    for u in o["u"]:
        u = float(u)
        est = empirical_char_function(samples, u)
        target = complex(char_function(params, u, t))
        dre = abs(est.value.real - target.real)
        dim = abs(est.value.imag - target.imag)
        # sigma units componentwise; a zero-variance component must match
        # exactly (z = 0), anything else at zero spread is a hard miss
        zs = []
        for delta, se in ((dre, est.stderr_real), (dim, est.stderr_imag)):
            if se == 0.0:
                zs.append(0.0 if delta == 0.0 else math.inf)
            else:
                zs.append(delta / se)
        z = max(zs)
        if not math.isfinite(z):
            z = 1e30  # keep the verdict serializable; it still fails
        verdicts.append(Verdict.at_most(f"cf-match[u={u:g}]", z,
                                        float(o["n_sigma"])))
        rows.append([u, est.value.real, est.value.imag, target.real,
                     target.imag, est.stderr_real, est.stderr_imag])
        stats[f"u={u:g}"] = {
            "empirical": [est.value.real, est.value.imag],
            "target": [target.real, target.imag],
            "stderr": [est.stderr_real, est.stderr_imag],
            "max_z": z,
        }
    curves = {"char_function": {
        "columns": ["u", "emp_re", "emp_im", "target_re", "target_im",
                    "stderr_re", "stderr_im"],
        "rows": np.asarray(rows),
    }}
    return stats, verdicts, curves


def _run_moment_tests(spec):
    o = _opts(spec, n_samples=100_000, gammas=(0.3, 0.5, 0.7),
              times=(0.5, 1.0), shifts=(0.0, 1.0), n_sigma=4.0)
    params = spec.derived_params()
    n = int(o["n_samples"])
    if n < 2:
        raise ConfigError("need n_samples >= 2")
    stats, verdicts = {}, []
    for it, t in enumerate(o["times"]):
        t = float(t)
        rng = path_rng(spec.seed, it)
        x_t = sample_stable_increment(params, t, rng, size=n)
        for gamma in o["gammas"]:
            gamma = float(gamma)
            for x in o["shifts"]:
                x = float(x)
                vals = np.abs(x_t - x) ** (-gamma)
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(n))
                bound = negative_moment_bound(params, gamma, t)
                thresh = bound * (1.0 + float(o["n_sigma"]) * se / mean)
                name = f"negative-moment[gamma={gamma:g},t={t:g},x={x:g}]"
                verdicts.append(Verdict.at_most(name, mean, thresh))
                stats[name] = {"empirical": mean, "stderr": se,
                               "bound": bound}
    return stats, verdicts, {}


def _run_martingale_zero_mean(spec):
    o = _opts(spec, n_paths=400, levels=(0.0, 0.5),
              checkpoints=(0.25, 0.5, 1.0), small_jump_in_M=None,
              n_sigma=4.0)
    params = spec.derived_params()
    cfg = spec.sim_config()
    n_paths = int(o["n_paths"])
    if n_paths < 2:
        raise ConfigError("need n_paths >= 2")
    checkpoints = [float(f) * cfg.T for f in o["checkpoints"]]
    rows = {(float(a), t): [] for a in o["levels"] for t in checkpoints}
    for i in range(n_paths):
        path = simulate_path_jumpdecomp(params, cfg, path_index=i)
        for (a, t), acc in rows.items():
            acc.append(martingale_part(
                params, path, a, t=t,
                small_jump_in_M=o["small_jump_in_M"]))
    stats, verdicts = {}, []
    for (a, t), acc in sorted(rows.items()):
        arr = np.asarray(acc)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(len(arr)))
        z = abs(mean) / se if se > 0 else (0.0 if mean == 0.0 else 1e30)
        name = f"martingale-mean-zero[a={a:g},t={t:g}]"
        verdicts.append(Verdict.at_most(name, z, float(o["n_sigma"])))
        stats[name] = {"mean": mean, "stderr": se,
                       "second_moment": float(np.mean(arr ** 2))}
    return stats, verdicts, {}


def _run_estimator_agreement(spec):
    o = _opts(spec, n_paths=300,
              schedule=((4e-3, 1024), (2e-3, 2048), (1e-3, 4096)),
              level=0.0, means_tolerance=0.10, small_jump_in_M=None)
    params = spec.derived_params()
    base = spec.sim_config()
    schedule = [(float(e), int(ns)) for e, ns in o["schedule"]]
    if len(schedule) < 2:
        raise ConfigError("schedule needs at least two refinement levels")
    a = float(o["level"])
    n_paths = int(o["n_paths"])
    if n_paths < 2:
        raise ConfigError("need n_paths >= 2")
    mses, t_means, o_means = [], [], []
    for eps, n_steps in schedule:
        cfg = SimConfig(T=base.T, n_steps=n_steps, eps=eps,
                        small_jump_mode=base.small_jump_mode,
                        seed=spec.seed, x0=base.x0)
        moll = default_mollifier(eps)
        diffs, tv, ov = [], [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(n_paths):
                path = simulate_path_jumpdecomp(params, cfg, path_index=i)
                tval = tanaka_estimator(
                    params, path, a,
                    small_jump_in_M=o["small_jump_in_M"]).value
                oval = occupation_estimator(path, a, moll).value
                diffs.append(tval - oval)
                tv.append(tval)
                ov.append(oval)
        mses.append(float(np.mean(np.square(diffs))))
        t_means.append(float(np.mean(tv)))
        o_means.append(float(np.mean(ov)))
    ratios = [mses[k + 1] / mses[k] for k in range(len(mses) - 1)]
    worst = max(ratios)
    gap = abs(t_means[-1] - o_means[-1]) / abs(o_means[-1])
    stats = {
        "schedule": [list(lv) for lv in schedule],
        "mse": mses,
        "tanaka_means": t_means,
        "occupation_means": o_means,
        "mse_ratios": ratios,
    }
    verdicts = [
        Verdict(criterion="agreement-mse-monotone", measured=worst,
                threshold=1.0, margin=1.0 - worst, passed=worst < 1.0),
        Verdict.at_most("agreement-finest-means", gap,
                        float(o["means_tolerance"])),
    ]
    curves = {"agreement": {
        "columns": ["eps", "n_steps", "mse", "tanaka_mean",
                    "occupation_mean"],
        "rows": np.column_stack([[lv[0] for lv in schedule],
                                 [lv[1] for lv in schedule],
                                 mses, t_means, o_means]),
    }}
    return stats, verdicts, curves


def _run_occupation_formula(spec):
    o = _opts(spec, n_paths=100, hat_half_width=1.0, hat_tolerance=0.05,
              unit_tolerance=0.02)
    params = spec.derived_params()
    cfg = spec.sim_config()
    n_paths = int(o["n_paths"])
    if n_paths < 1:
        raise ConfigError("need n_paths >= 1")
    moll = default_mollifier(cfg.eps)
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    hat_res, unit_res = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(n_paths):
            path = simulate_path_jumpdecomp(params, cfg, path_index=i)
            grid = default_a_grid(path)
            g = hat_function(float(np.median(path.values)),
                             float(o["hat_half_width"]))
            hat_res.append(occupation_formula_check(path, g, grid, moll))
            unit_res.append(occupation_formula_check(path, ones, grid, moll))
    hat_res, unit_res = np.asarray(hat_res), np.asarray(unit_res)
    stats = {
        "hat_residual_median": float(np.median(hat_res)),
        "hat_residual_max": float(hat_res.max()),
        "unit_residual_median": float(np.median(unit_res)),
        "unit_residual_max": float(unit_res.max()),
        "n_paths": n_paths,
    }
    verdicts = [
        Verdict.at_most("occupation-formula-hat-median",
                        stats["hat_residual_median"],
                        float(o["hat_tolerance"])),
        Verdict.at_most("occupation-formula-unit-median",
                        stats["unit_residual_median"],
                        float(o["unit_tolerance"])),
    ]
    curves = {"residuals": {
        "columns": ["path_index", "hat_residual", "unit_residual"],
        "rows": np.column_stack([np.arange(n_paths), hat_res, unit_res]),
    }}
    return stats, verdicts, curves


def _run_existence_scan(spec):
    o = _opts(spec, alphas=(0.9, 1.2, 1.5, 1.8), cutoffs=(1e2, 1e4, 1e6),
              c_plus=1.0, c_minus=1.0, convergence_tolerance=1e-2,
              growth_fraction=0.10)
    cutoffs = [float(c) for c in o["cutoffs"]]
    if len(cutoffs) < 2 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError("cutoffs must be increasing with >= 2 entries")
    stats, verdicts, rows = {}, [], []
    for alpha in o["alphas"]:
        alpha = float(alpha)
        if alpha > 1.0:
            partials = [existence_integral(alpha, c, o["c_plus"],
                                           o["c_minus"]) for c in cutoffs]
            diffs = [abs(b - a) for a, b in zip(partials, partials[1:])]
            verdicts.append(Verdict.at_most(
                f"existence-converges[alpha={alpha:g}]", max(diffs),
                float(o["convergence_tolerance"])))
            stats[f"alpha={alpha:g}"] = {"partials": partials,
                                         "diffs": diffs}
            for c, p in zip(cutoffs, partials):
                rows.append([alpha, c, p])
        else:
            # walk decade by decade so the growth rate is per tenfold cutoff
            decades = [cutoffs[0]]
            while decades[-1] < cutoffs[-1] * 0.999:
                decades.append(decades[-1] * 10.0)
            partials = [existence_integral(alpha, c, o["c_plus"],
                                           o["c_minus"]) for c in decades]
            growth = [b / a - 1.0 for a, b in zip(partials, partials[1:])]
            verdicts.append(Verdict.at_least(
                f"existence-diverges[alpha={alpha:g}]", min(growth),
                float(o["growth_fraction"])))
            stats[f"alpha={alpha:g}"] = {"partials": partials,
                                         "per_decade_growth": growth}
            for c, p in zip(decades, partials):
                rows.append([alpha, c, p])
    curves = {"partials": {"columns": ["alpha", "cutoff", "partial"],
                           "rows": np.asarray(rows)}}
    return stats, verdicts, curves


def _run_density_report(spec):
    o = _opts(spec, half_width=80.0, n_points=2 ** 15, times=(0.5, 1.0),
              mass_tolerance=1e-6, symmetry_tolerance=1e-8,
              selfsim_tolerance=1e-6)
    params = spec.derived_params()
    try:
        grid = Grid(float(o["half_width"]), int(o["n_points"]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    stats, verdicts, curves = {}, [], {}
    n = grid.n_points
    mirror = np.arange(n - 1, 0, -1)  # x_{n-j} = -x_j for j = 1..n-1
    for t in o["times"]:
        t = float(t)
        den = transition_density(params, t, grid)
        vals = den.values
        mass = float(np.sum(vals) * grid.spacing)
        peak = float(np.max(np.abs(vals)))
        verdicts.append(Verdict.at_most(
            f"density-mass[t={t:g}]", abs(mass - 1.0),
            float(o["mass_tolerance"])))
        entry = {"mass": mass, "peak": peak}
        if params.beta == 0.0:
            sym = float(np.max(np.abs(vals[1:] - vals[mirror]))) / peak
            verdicts.append(Verdict.at_most(
                f"density-symmetry[t={t:g}]", sym,
                float(o["symmetry_tolerance"])))
            entry["symmetry_residual"] = sym
        # self-similarity: p_t on this grid against the rescaled unit-time
        # density on the dual grid whose points are exactly s*x_j
        s = t ** (-1.0 / params.alpha)
        dual = Grid(grid.half_width * s, n)
        unit = transition_density(params, 1.0, dual)
        rescaled = s * unit.values
        selfsim = float(np.max(np.abs(vals - rescaled))) / peak
        verdicts.append(Verdict.at_most(
            f"density-selfsim[t={t:g}]", selfsim,
            float(o["selfsim_tolerance"])))
        entry["selfsim_residual"] = selfsim
        stats[f"t={t:g}"] = entry
        curves[f"density_t{t:g}"] = {
            "columns": ["x", "p"],
            "rows": np.column_stack([grid.points, vals]),
        }
    return stats, verdicts, curves


_RUNNERS = {
    "generator-identity": _run_generator_identity,
    "martingale-zero-mean": _run_martingale_zero_mean,
    "occupation-formula": _run_occupation_formula,
    "estimator-agreement": _run_estimator_agreement,
    "sampler-validation": _run_sampler_validation,
    "moment-tests": _run_moment_tests,
    "existence-scan": _run_existence_scan,
    "density-report": _run_density_report,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Validate, dispatch, time, and (if out_dir is set) write the report.

    Config errors surface as :class:`ConfigError` before any compute;
    tolerance violations become FAIL verdicts on the returned report, never
    exceptions.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.from_dict(spec)
    # touch the derived blocks so malformed configs die before the run
    spec.derived_params()
    if _NEEDS_SIM[spec.kind]:
        spec.sim_config()
    start = time.perf_counter()
    stats, verdicts, curves = _RUNNERS[spec.kind](spec)
    wall = time.perf_counter() - start
    report = ExperimentReport(
        kind=spec.kind,
        inputs=spec.to_dict(),
        statistics=stats,
        verdicts=list(verdicts),
        curves=curves,
        wall_time_s=wall,
        versions=_versions(),
    )
    if spec.out_dir is not None:
        emit_report(report, "csv-bundle", spec.out_dir)
    return report


# -------------------------------------------------------------- serialization

def _jsonable(obj):
    """Recursively convert to plain JSON types, refusing non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError(f"refusing to serialize non-finite value {v!r}")
        return v
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _report_payload(report: ExperimentReport, inline_curves: bool) -> dict:
    payload = {
        "kind": report.kind,
        "inputs": _jsonable(report.inputs),
        "statistics": _jsonable(report.statistics),
        "verdicts": [_jsonable(asdict(v)) for v in report.verdicts],
        "versions": _jsonable(report.versions),
        "all_passed": report.all_passed,
    }
    if inline_curves:
        payload["curves"] = _jsonable(report.curves)
    else:
        payload["curves"] = {
            name: {"file": f"{name}.csv",
                   "columns": list(curve["columns"]),
                   "n_rows": int(np.asarray(curve["rows"]).shape[0])}
            for name, curve in report.curves.items()}
    return payload


def emit_report(report: ExperimentReport, format: str = "json",
                out_dir=".") -> list:
    """Write the report; returns the list of created paths.

    ``json`` writes a single self-contained report.json with curves inline;
    ``csv-bundle`` writes report.json plus one CSV per curve. Serialization
    is deterministic -- sorted keys, shortest-repr floats -- and refuses
    NaN/Inf anywhere. Wall time is deliberately not serialized, so repeated
    runs of the same spec produce byte-identical files.
    """
    if format not in ("json", "csv-bundle"):
        raise ValueError(f"format must be json or csv-bundle, got {format!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}")
    # validate everything up front: a NaN anywhere must refuse the whole
    # bundle, not leave half of it on disk
    for name, curve in report.curves.items():
        rows = np.asarray(curve["rows"], dtype=float)
        if not np.all(np.isfinite(rows)):
            raise ValueError(
                f"refusing to serialize non-finite values in curve {name!r}")
    payload = _report_payload(report, inline_curves=(format == "json"))
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    written = []
    report_path = out / "report.json"
    report_path.write_text(text + "\n", encoding="utf-8")
    written.append(report_path)
    if format == "csv-bundle":
        for name, curve in report.curves.items():
            rows = np.asarray(curve["rows"], dtype=float)
            path = out / f"{name}.csv"
            with path.open("w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(curve["columns"]) + "\n")
                for row in rows:
                    fh.write(",".join(format_float(v) for v in row) + "\n")
            written.append(path)
    return written


def format_float(v: float) -> str:
    """Shortest round-trip decimal form, fixed across runs."""
    return repr(float(v))
