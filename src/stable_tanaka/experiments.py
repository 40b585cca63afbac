"""Config-driven, seeded experiments with machine-readable reports.

An :class:`ExperimentSpec` names one of the eight experiment kinds, the
process parameters, and the sampling budget; :func:`run_experiment`
dispatches to the matching module routines and returns an
:class:`ExperimentReport` whose verdicts each carry a named criterion, the
measured value, the threshold, and the margin. Reports go through json's
own encoder -- sorted keys, shortest-repr floats, allow_nan=False, and a
hook that writes a numpy integer or bool as its Python value -- so
repeated runs of the same spec are byte-identical and diffable in CI.

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
the path-simulation knobs (T, n_steps, eps, x0), and ``options`` the
kind-specific budget and tolerances. Each field is declared once, with
its default, type and range: the two blocks' fields in ``_PARAMS_FIELDS``
and ``_SIM_FIELDS``, which the command line's flags are built from too,
and the options in the kind's entry of the registry ``_KINDS``. The
entry also names the fields the kind reads: every ``params`` field for
every kind but existence-scan, whose intensities are options, and the
``sim`` fields for the three kinds that draw paths (martingale-zero-mean
and occupation-formula read all four, estimator-agreement only T and x0,
since its schedule sets the eps and n_steps of every path). Building a
spec requires each block of which the kind reads a field and refuses
any other block and any field the kind does not read, so every value a
spec gives has a reader; it checks each value against its declaration,
then the jump count of each path the kind draws, so a malformed spec
raises :class:`ConfigError` before any compute. Wall time is recorded on the
report object but excluded from the serialized bytes so determinism
survives.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .kernel import kernel_convolve, standard_bump
from .localtime import (
    default_a_grid,
    default_mollifier,
    hat_function,
    martingale_part,
    occupation_curve,
    occupation_formula_check,
    tanaka_curve,
)
from .params import derive_params
from .pathsim import (
    SimConfig,
    _blocks,
    _stream_key,
    empirical_char_function,
    expected_jump_count,
    path_rng,
    sample_stable_increment,
    simulate_path_jumpdecomp,
)
from .spectral import (
    Grid,
    ResolutionError,
    ToleranceError,
    char_function,
    existence_integral,
    existence_limit,
    generator_apply_windowed,
    levy_symbol,
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
]


class ConfigError(ValueError):
    """Bad experiment configuration, reported before any compute."""


def _number(where: str, value, integer: bool):
    """A JSON number as int or finite float; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        kind = "integer" if integer else "number"
        raise ConfigError(f"{where} must be a finite {kind}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class Option:
    """One setting: its default (None: none, the setting must be given),
    value type and range.

    ``type`` is ``"int"``, ``"float"``, ``"floats"`` (a non-empty list, each
    entry in ``range``) or ``"schedule"`` (two or more ``[eps, n_steps]``
    pairs); ``range`` is an interval such as ``"(0, 1]"``.
    """

    default: object
    type: str = "float"
    range: str = "(-inf, inf)"

    def parse(self, name: str, value):
        if self.type not in ("floats", "schedule"):
            return self._scalar(name, value)
        pairs = self.type == "schedule"
        if not isinstance(value, (list, tuple)) or len(value) < 1 + pairs \
                or pairs and not all(isinstance(p, (list, tuple))
                                     and len(p) == 2 for p in value):
            what = "two or more [eps, n_steps] pairs" if pairs else "numbers"
            raise ConfigError(f"{name} must be a list of {what}, "
                              f"got {value!r}")
        if pairs:
            return [(_number(f"{name}[{i}][0]", e, integer=False),
                     _number(f"{name}[{i}][1]", n, integer=True))
                    for i, (e, n) in enumerate(value)]
        return [self._scalar(f"{name}[{i}]", v) for i, v in enumerate(value)]

    def _scalar(self, where: str, value):
        value = _number(where, value, integer=self.type == "int")
        lo, hi = (float(end) for end in self.range[1:-1].split(","))
        if not ((lo < value if self.range[0] == "(" else lo <= value)
                and (value < hi if self.range[-1] == ")" else value <= hi)):
            raise ConfigError(
                f"{where} must lie in {self.range}, got {value!r}")
        return value


def _typed(where: str, block: dict, schema: dict, make: Callable = dict,
           prefix: str = ""):
    """``make`` called on a block checked against a name -> Option schema,
    defaults filled; a value is named ``prefix + name`` when refused, and
    a ValueError from ``make`` is a ConfigError."""
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    defaults = {n: opt.default for n, opt in schema.items()
                if opt.default is not None}
    typed = defaults | {n: schema[n].parse(prefix + n, v)
                        for n, v in block.items()}
    try:
        return make(**typed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


# the one declaration of each process and simulation input, read by the
# spec, the command line's flags and existence-scan's intensity options.
# StableParams and SimConfig check what a range cannot say
_PARAMS_FIELDS = {"alpha": Option(None, "float", "(1, 2)"),
                  "c_plus": Option(1.0, "float", "[0, inf)"),
                  "c_minus": Option(1.0, "float", "[0, inf)")}
_SIM_FIELDS = {"T": Option(1.0, "float", "(0, inf)"),
               "n_steps": Option(512, "int", "[1, inf)"),
               "eps": Option(1e-3, "float", "(0, 1)"),
               "x0": Option(0.0)}
_PARAMS = tuple(f"params.{n}" for n in _PARAMS_FIELDS)
_SIM = tuple(f"sim.{n}" for n in _SIM_FIELDS)


def _read_inputs(owner: str, reads: tuple, params, sim, seed) -> tuple:
    """The StableParams and SimConfig (seeded with ``seed``) that the
    ``params`` and ``sim`` blocks give, each field checked against its
    table entry.

    ``reads`` names the fields ``owner`` reads, as ``"sim.eps"``. A block
    of which it names none must be None and gives None; any other must be
    given, and a field it does not name is refused, so every value given
    has a reader. A block of which it names some fields gives a
    ``partial`` of the constructor that holds them, for the owner to
    complete."""
    made = []
    for block, given, table, make in (
            ("params", params, _PARAMS_FIELDS, derive_params),
            ("sim", sim, _SIM_FIELDS, partial(SimConfig, seed=seed))):
        read = {n: opt for n, opt in table.items() if f"{block}.{n}" in reads}
        if not read and given is not None:
            raise ConfigError(f"{owner} reads no {block} block")
        if read and not given:
            raise ConfigError(f"{owner} needs a {block} block")
        unread = [f"{block}.{n}" for n in table if n in (given or ())
                  and n not in read]
        if unread:
            raise ConfigError(f"{owner} reads no {', '.join(unread)}")
        if len(read) < len(table):
            make = partial(partial, make)
        made.append(_typed(f"{block} fields", given, read, make,
                           prefix=f"{block}.") if read else None)
    return tuple(made)


def _check_jump_counts(params, sims) -> None:
    """ConfigError unless each path under each SimConfig of ``sims`` can
    draw its jumps and hold them."""
    try:
        for cfg in sims:
            expected_jump_count(params, cfg)
    except ValueError as exc:
        raise ConfigError(f"bad sim block: {exc}") from None


@dataclass(frozen=True)
class _Kind:
    """A kind's ``run(spec, opts, params, sims)``, its options, the spec
    fields it ``reads`` (``"params.alpha"``, ``"sim.eps"``; a spec must
    give each block of which it reads a field, and no field it does not
    read), the ``labeled`` lists, whose entries name verdicts and
    statistics, and ``check(opts, params, cfg)``, which raises ValueError
    on cross-field faults and returns ``sims``, the SimConfigs of the
    paths it draws. ``params`` and ``cfg`` are None where no field of the
    block is read, and ``cfg`` is a partial SimConfig that ``check``
    completes where only some sim fields are."""

    run: Callable
    options: dict
    reads: tuple
    labeled: tuple = ()
    check: Callable = lambda opts, params, cfg: []


def _distinct_labels(name: str, values) -> None:
    """ValueError if two different values print as one ``{:g}`` label,
    which would name two results alike."""
    seen = {}
    for value in values:
        first = seen.setdefault(f"{value:g}", value)
        if first != value:
            raise ValueError(f"{name} {first!r} and {value!r} share the "
                             f"label {value:g}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One named, seeded experiment configuration.

    Construction requires each block of which the kind's registry entry
    reads a field, refuses any other block and any field the kind does not
    read, checks the blocks against their tables and the options against
    the entry, then the expected jump count of each path the kind draws,
    and keeps the typed inputs for the runner outside the fields.
    """

    kind: str
    params: dict | None = None
    sim: dict | None = None
    options: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; expected one of "
                f"{', '.join(_KINDS)}")
        for name in ("params", "sim", "options"):
            if not isinstance(getattr(self, name), (dict, type(None))):
                raise ConfigError(f"{name} must be a JSON object")
        entry = _KINDS[self.kind]
        try:
            _stream_key("seed", self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.out_dir, (str, type(None))):
            raise ConfigError("out_dir must be a string or null")
        params, cfg = _read_inputs(self.kind, entry.reads, self.params,
                                   self.sim, self.seed)
        opts = _typed(f"options for {self.kind}", self.options or {},
                      entry.options)
        try:
            for name in entry.labeled:
                # an exact repeat would name two results alike: the first
                # is kept, and the spec's own options stay as given
                opts[name] = list(dict.fromkeys(opts[name]))
                _distinct_labels(name, opts[name])
            sims = entry.check(opts, params, cfg)
        except ValueError as exc:
            raise ConfigError(f"{self.kind} options: {exc}") from None
        _check_jump_counts(params, sims)
        object.__setattr__(self, "_inputs", (opts, params, sims))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        if not isinstance(raw, dict):
            raise ConfigError("spec must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
        if "kind" not in raw:
            raise ConfigError("spec needs a kind")
        return cls(**raw)


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
        # the SIMD kernel sets numpy dispatches to on this CPU: the last
        # bits of a transcendental can differ between them
        "numpy_simd": np.show_config(
            mode="dicts")["SIMD Extensions"]["found"],
        "scipy": scipy.__version__,
        "stable_tanaka": __version__,
    }


# ------------------------------------------------------------------ runners

def _ratio(num: float, den: float) -> float:
    """num / den for den >= 0, with 0/0 = 0 and x/0 = 1e30, so that a
    degenerate statistic still gives a finite verdict (a huge one fails)."""
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else 1e30


def _path_rows(params, cfg, n_paths, per_path) -> np.ndarray:
    """``per_path`` of paths 0, ..., n_paths - 1 under ``cfg``, one row per
    path in index order, the paths in one block per CPU."""
    return np.array(_blocks(n_paths, lambda i: per_path(
        simulate_path_jumpdecomp(params, cfg, path_index=i))))


def _check_grid(o, params, cfg):
    Grid(o["half_width"], o["n_points"])
    return []


def _run_generator_identity(spec, o, params, sims):
    w = o["bump_width"]

    def phi(x):
        return standard_bump(2.0 * np.asarray(x, dtype=float) / w)

    def smoothed(x):
        return kernel_convolve(params, phi, x, radius=w / 2.0)

    grid = Grid(o["half_width"], o["n_points"])
    x_rep, applied = generator_apply_windowed(params, smoothed, grid)
    keep = np.abs(x_rep) <= o["report_radius"]
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
                                o["tolerance"])]
    curves = {"identity": {
        "columns": ["x", "applied", "target"],
        "rows": np.column_stack([x_keep, applied[keep], target]),
    }}
    return stats, verdicts, curves


def _check_symbol(o, params, cfg):
    # t eta(u) must stay finite at every u, as transition_density asks of
    # the symbol at its frequency cutoff
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = o["t"] * levy_symbol(params, o["u"])
    far = [u for u, e in zip(o["u"], exponent) if not np.isfinite(e)]
    if far:
        raise ValueError(f"t eta(u) overflows at u = {far}")
    return []


def _run_sampler_validation(spec, o, params, sims):
    samples = sample_stable_increment(params, o["t"], path_rng(spec.seed),
                                      size=o["n_samples"])
    stats, verdicts, rows = {}, [], []
    for u in o["u"]:
        est = empirical_char_function(samples, u)
        target = complex(char_function(params, u, o["t"]))
        dre = abs(est.value.real - target.real)
        dim = abs(est.value.imag - target.imag)
        # sigma units componentwise; a zero-variance component must match
        # exactly (z = 0), anything else at zero spread is a hard miss
        z = max(_ratio(dre, est.stderr_real), _ratio(dim, est.stderr_imag))
        verdicts.append(Verdict.at_most(f"cf-match[u={u:g}]", z,
                                        o["n_sigma"]))
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


def _run_moment_tests(spec, o, params, sims):
    n = o["n_samples"]
    stats, verdicts = {}, []
    for it, t in enumerate(o["times"]):
        rng = path_rng(spec.seed, it)
        x_t = sample_stable_increment(params, t, rng, size=n)
        for gamma in o["gammas"]:
            for x in o["shifts"]:
                vals = np.abs(x_t - x) ** (-gamma)
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(n))
                bound = negative_moment_bound(params, gamma, t)
                thresh = bound * (1.0 + o["n_sigma"] * se / mean)
                name = f"negative-moment[gamma={gamma:g},t={t:g},x={x:g}]"
                verdicts.append(Verdict.at_most(name, mean, thresh))
                stats[name] = {"empirical": mean, "stderr": se,
                               "bound": bound}
    return stats, verdicts, {}


def _check_checkpoints(o, params, cfg):
    # M at t needs at least one grid step before t
    short = [f for f in o["checkpoints"] if f * cfg.T < cfg.dt]
    if short:
        raise ValueError(f"checkpoints {short} fall inside the first grid "
                         f"step (T/n_steps = {cfg.dt:g})")
    _distinct_labels("checkpoint times",
                     sorted(set(f * cfg.T for f in o["checkpoints"])))
    return [cfg]


def _run_martingale_zero_mean(spec, o, params, sims):
    (cfg,) = sims
    checkpoints = sorted(set(f * cfg.T for f in o["checkpoints"]))
    levels = o["levels"]
    m = _path_rows(params, cfg, o["n_paths"], lambda path: martingale_part(
        params, path, levels, checkpoints=checkpoints))
    stats, verdicts = {}, []
    for a, j in sorted(zip(levels, range(len(levels)))):
        for k, t in enumerate(checkpoints):
            arr = m[:, k, j]
            mean = float(arr.mean())
            se = float(arr.std(ddof=1) / math.sqrt(len(arr)))
            z = _ratio(abs(mean), se)
            name = f"martingale-mean-zero[a={a:g},t={t:g}]"
            verdicts.append(Verdict.at_most(name, z, o["n_sigma"]))
            stats[name] = {"mean": mean, "stderr": se,
                           "second_moment": float(np.mean(arr ** 2))}
    return stats, verdicts, {}


def _schedule_configs(o, params, cfg):
    """The sim block completed by each schedule level's (eps, n_steps)."""
    return [cfg(eps=eps, n_steps=n_steps) for eps, n_steps in o["schedule"]]


def _run_estimator_agreement(spec, o, params, sims):
    a = o["level"]
    mses, t_means, o_means = [], [], []
    for level in sims:
        moll = default_mollifier(level.eps)
        tv, ov = _path_rows(params, level, o["n_paths"], lambda path: (
            tanaka_curve(params, path, [a])[0],
            occupation_curve(path, [a], moll)[0])).T
        mses.append(float(np.mean(np.square(tv - ov))))
        t_means.append(float(np.mean(tv)))
        o_means.append(float(np.mean(ov)))
    ratios = [_ratio(mses[k + 1], mses[k]) for k in range(len(mses) - 1)]
    worst = max(ratios)
    gap = _ratio(abs(t_means[-1] - o_means[-1]), abs(o_means[-1]))
    stats = {
        "schedule": [list(lv) for lv in o["schedule"]],
        "mse": mses,
        "tanaka_means": t_means,
        "occupation_means": o_means,
        "mse_ratios": ratios,
    }
    verdicts = [
        Verdict(criterion="agreement-mse-monotone", measured=worst,
                threshold=1.0, margin=1.0 - worst, passed=worst < 1.0),
        Verdict.at_most("agreement-finest-means", gap,
                        o["means_tolerance"]),
    ]
    curves = {"agreement": {
        "columns": ["eps", "n_steps", "mse", "tanaka_mean",
                    "occupation_mean"],
        "rows": np.column_stack([np.array(o["schedule"], dtype=float),
                                 mses, t_means, o_means]),
    }}
    return stats, verdicts, curves


def _run_occupation_formula(spec, o, params, sims):
    (cfg,) = sims
    n_paths = o["n_paths"]
    moll = default_mollifier(cfg.eps)

    def residuals(path):
        g = hat_function(float(np.median(path.values)), o["hat_half_width"])
        return occupation_formula_check(path, [g, np.ones_like],
                                        default_a_grid(path), moll)

    hat_res, unit_res = _path_rows(params, cfg, n_paths, residuals).T
    stats = {
        "hat_residual_median": float(np.median(hat_res)),
        "hat_residual_max": float(hat_res.max()),
        "unit_residual_median": float(np.median(unit_res)),
        "unit_residual_max": float(unit_res.max()),
        "n_paths": n_paths,
    }
    verdicts = [
        Verdict.at_most("occupation-formula-hat-median",
                        stats["hat_residual_median"], o["hat_tolerance"]),
        Verdict.at_most("occupation-formula-unit-median",
                        stats["unit_residual_median"], o["unit_tolerance"]),
    ]
    curves = {"residuals": {
        "columns": ["path_index", "hat_residual", "unit_residual"],
        "rows": np.column_stack([np.arange(n_paths), hat_res, unit_res]),
    }}
    return stats, verdicts, curves


def _scan_points(alpha, cutoffs):
    """The cutoffs the scan evaluates at ``alpha``: as given for alpha > 1,
    else decade by decade, so the growth rate is per tenfold cutoff."""
    if alpha > 1.0:
        return list(cutoffs)
    points = [cutoffs[0]]
    while points[-1] < cutoffs[-1] * 0.999 or len(points) < 2:
        points.append(points[-1] * 10.0)
    return points


def _check_existence(o, params, cfg):
    cutoffs = o["cutoffs"]
    if len(cutoffs) < 2 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be increasing with >= 2 entries")
    # the partial at the last point the scan reaches raises where the scan
    # would: bad intensities, an overflowing 2F1 argument, a non-finite value
    for alpha in o["alphas"]:
        existence_integral(alpha, _scan_points(alpha, cutoffs)[-1],
                           o["c_plus"], o["c_minus"])
    return []


def _run_existence_scan(spec, o, params, sims):
    stats, verdicts, rows = {}, [], []
    for alpha in o["alphas"]:
        points = _scan_points(alpha, o["cutoffs"])
        partials = [existence_integral(alpha, c, o["c_plus"], o["c_minus"])
                    for c in points]
        rows += [[alpha, c, p] for c, p in zip(points, partials)]
        if alpha > 1.0:
            diffs = [abs(b - a) for a, b in zip(partials, partials[1:])]
            verdicts.append(Verdict.at_most(
                f"existence-converges[alpha={alpha:g}]", max(diffs),
                o["convergence_tolerance"]))
            # the limit and each partial's remainder, as a diagnostic:
            # the verdict stays on the successive differences
            limit = existence_limit(alpha, o["c_plus"], o["c_minus"])
            stats[f"alpha={alpha:g}"] = {
                "partials": partials, "diffs": diffs, "limit": limit,
                "remainders": [limit - p for p in partials]}
        else:
            growth = [b / a - 1.0 for a, b in zip(partials, partials[1:])]
            verdicts.append(Verdict.at_least(
                f"existence-diverges[alpha={alpha:g}]", min(growth),
                o["growth_fraction"]))
            stats[f"alpha={alpha:g}"] = {"partials": partials,
                                         "per_decade_growth": growth}
    curves = {"partials": {"columns": ["alpha", "cutoff", "partial"],
                           "rows": np.asarray(rows)}}
    return stats, verdicts, curves


def _run_density_report(spec, o, params, sims):
    grid = Grid(o["half_width"], o["n_points"])
    stats, verdicts, curves = {}, [], {}
    n = grid.n_points
    mirror = np.arange(n - 1, 0, -1)  # x_{n-j} = -x_j for j = 1..n-1
    for t in o["times"]:
        vals = transition_density(params, t, grid)
        mass = float(np.sum(vals) * grid.spacing)
        peak = float(np.max(np.abs(vals)))
        verdicts.append(Verdict.at_most(
            f"density-mass[t={t:g}]", abs(mass - 1.0), o["mass_tolerance"]))
        entry = {"mass": mass, "peak": peak}
        if params.beta == 0.0:
            sym = float(np.max(np.abs(vals[1:] - vals[mirror]))) / peak
            verdicts.append(Verdict.at_most(
                f"density-symmetry[t={t:g}]", sym, o["symmetry_tolerance"]))
            entry["symmetry_residual"] = sym
        # self-similarity: p_t on this grid against the rescaled unit-time
        # density on the dual grid whose points are exactly s*x_j
        s = t ** (-1.0 / params.alpha)
        dual = Grid(grid.half_width * s, n)
        rescaled = s * transition_density(params, 1.0, dual)
        selfsim = float(np.max(np.abs(vals - rescaled))) / peak
        verdicts.append(Verdict.at_most(
            f"density-selfsim[t={t:g}]", selfsim, o["selfsim_tolerance"]))
        entry["selfsim_residual"] = selfsim
        stats[f"t={t:g}"] = entry
        curves[f"density_t{t:g}"] = {
            "columns": ["x", "p"],
            "rows": np.column_stack([grid.points, vals]),
        }
    return stats, verdicts, curves


_KINDS = {
    "generator-identity": _Kind(_run_generator_identity, {
        "half_width": Option(40.0, "float", "(0, inf)"),
        "n_points": Option(2 ** 14, "int", "[256, inf)"),
        "bump_width": Option(2.0, "float", "(0, inf)"),
        "report_radius": Option(10.0, "float", "(0, inf)"),
        "tolerance": Option(1e-2, "float", "[0, inf)"),
    }, reads=_PARAMS, check=_check_grid),
    "martingale-zero-mean": _Kind(_run_martingale_zero_mean, {
        "n_paths": Option(400, "int", "[2, inf)"),
        "levels": Option((0.0, 0.5), "floats"),
        "checkpoints": Option((0.25, 0.5, 1.0), "floats", "(0, 1]"),
        "n_sigma": Option(4.0, "float", "(0, inf)"),
    }, reads=_PARAMS + _SIM, labeled=("levels",), check=_check_checkpoints),
    "occupation-formula": _Kind(_run_occupation_formula, {
        "n_paths": Option(100, "int", "[1, inf)"),
        "hat_half_width": Option(1.0, "float", "(0, inf)"),
        "hat_tolerance": Option(0.05, "float", "[0, inf)"),
        "unit_tolerance": Option(0.02, "float", "[0, inf)"),
    }, reads=_PARAMS + _SIM, check=lambda o, params, cfg: [cfg]),
    "estimator-agreement": _Kind(_run_estimator_agreement, {
        "n_paths": Option(300, "int", "[2, inf)"),
        "schedule": Option(((4e-3, 1024), (2e-3, 2048), (1e-3, 4096)),
                           "schedule"),
        "level": Option(0.0),
        "means_tolerance": Option(0.10, "float", "[0, inf)"),
    }, reads=_PARAMS + ("sim.T", "sim.x0"), check=_schedule_configs),
    "sampler-validation": _Kind(_run_sampler_validation, {
        "n_samples": Option(100_000, "int", "[1, inf)"),
        "u": Option((0.5, 1.0, 2.0, 4.0), "floats"),
        "t": Option(1.0, "float", "(0, inf)"),
        "n_sigma": Option(4.0, "float", "(0, inf)"),
    }, reads=_PARAMS, labeled=("u",), check=_check_symbol),
    "moment-tests": _Kind(_run_moment_tests, {
        "n_samples": Option(100_000, "int", "[2, inf)"),
        "gammas": Option((0.3, 0.5, 0.7), "floats", "(0, 1)"),
        "times": Option((0.5, 1.0), "floats", "(0, inf)"),
        "shifts": Option((0.0, 1.0), "floats"),
        "n_sigma": Option(4.0, "float", "(0, inf)"),
    }, reads=_PARAMS, labeled=("gammas", "times", "shifts")),
    "existence-scan": _Kind(_run_existence_scan, {
        "alphas": Option((0.9, 1.2, 1.5, 1.8), "floats", "(0, 2)"),
        "cutoffs": Option((1e2, 1e4, 1e6), "floats", "(0, inf)"),
        "c_plus": _PARAMS_FIELDS["c_plus"],
        "c_minus": _PARAMS_FIELDS["c_minus"],
        "convergence_tolerance": Option(1e-2, "float", "[0, inf)"),
        "growth_fraction": Option(0.10, "float", "[0, inf)"),
    }, reads=(), labeled=("alphas",), check=_check_existence),
    "density-report": _Kind(_run_density_report, {
        "half_width": Option(80.0, "float", "(0, inf)"),
        "n_points": Option(2 ** 15, "int", "[256, inf)"),
        "times": Option((0.5, 1.0), "floats", "(0, inf)"),
        "mass_tolerance": Option(1e-6, "float", "[0, inf)"),
        "symmetry_tolerance": Option(1e-8, "float", "[0, inf)"),
        "selfsim_tolerance": Option(1e-6, "float", "[0, inf)"),
    }, reads=_PARAMS, labeled=("times",), check=_check_grid),
}


def _bundle_dir(out) -> Path | None:
    """``out`` as a Path, None if it is None or empty, refused with
    ConfigError unless it names a directory that exists or can be made:
    any error but "not found" from checking it or a parent (a NUL byte
    included), a nearest existing part that is not a directory, and a
    missing name longer than the file system allows."""
    if not out:
        return None
    path = Path(out)
    try:
        for found in (path, *path.parents):
            try:
                found.lstat()
                break
            except (FileNotFoundError, NotADirectoryError):
                pass
        limit = os.pathconf(found, "PC_NAME_MAX") \
            if hasattr(os, "pathconf") else 255
    except (OSError, ValueError) as exc:
        raise ConfigError(f"output directory {out!r}: {exc}") from None
    if not found.is_dir():
        raise ConfigError(f"output directory {out!r}: {str(found)!r} is "
                          "not a directory")
    # pathconf gives -1 where the file system sets no limit
    if any(len(os.fsencode(name)) > limit >= 0
           for name in path.relative_to(found).parts):
        raise ConfigError(f"output directory {out!r}: a name in it is "
                          f"longer than the file system's {limit} bytes")
    return path


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run a spec (or a dict, built into one), time it, and (if out_dir is
    set and not empty) write the report there.

    Config errors surface as :class:`ConfigError` before the kind runs:
    when the spec is built, or when its out_dir is checked to be a
    directory that exists or can be made. A grid too coarse or too fine
    for the inputs, which the numerics detect themselves, is reported as
    one too; tolerance violations become FAIL verdicts on the returned
    report, never exceptions.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.from_dict(spec)
    out = _bundle_dir(spec.out_dir)
    start = time.perf_counter()
    try:
        stats, verdicts, curves = _KINDS[spec.kind].run(spec, *spec._inputs)
    except (ResolutionError, ToleranceError) as exc:
        raise ConfigError(f"cannot resolve this spec: {exc}") from None
    wall = time.perf_counter() - start
    report = ExperimentReport(
        kind=spec.kind,
        inputs=asdict(spec),
        statistics=stats,
        verdicts=list(verdicts),
        curves=curves,
        wall_time_s=wall,
        versions=_versions(),
    )
    if out is not None:
        emit_report(report, out)
    return report


# -------------------------------------------------------------- serialization

def _report_payload(report: ExperimentReport) -> dict:
    return {
        "kind": report.kind,
        "inputs": report.inputs,
        "statistics": report.statistics,
        "verdicts": [asdict(v) for v in report.verdicts],
        "versions": report.versions,
        "all_passed": report.all_passed,
        "curves": {name: {"file": f"{name}.csv",
                          "columns": list(curve["columns"]),
                          "n_rows": int(np.asarray(curve["rows"]).shape[0])}
                   for name, curve in report.curves.items()},
    }


def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus one CSV per curve into ``out_dir``, as new
    files by the one writer, ``_write_files``; returns the list of created
    paths.

    report.json names each curve's file, columns and row count.
    Serialization is deterministic -- sorted keys, shortest-repr floats --
    and refuses NaN/Inf anywhere. Wall time is deliberately not serialized,
    so repeated runs of the same spec produce byte-identical files.
    """
    texts = {"report.json": _json_text(_report_payload(report))}
    for name, curve in report.curves.items():
        texts[f"{name}.csv"] = _csv_text(curve["columns"], curve["rows"])
    return _write_files(out_dir, texts)


def _numpy_value(obj):
    """json's hook for the numpy values it cannot write itself: an integer
    or bool as its Python value. Numpy floats are floats to json already;
    reports and sidecars hold lists, never arrays, and an array is
    refused."""
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _json_text(obj) -> str:
    """UTF-8 JSON with sorted keys, indent 2 and a trailing newline; NaN
    and Inf are refused."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_numpy_value) + "\n"
    except ValueError as exc:
        raise ValueError(
            f"refusing to serialize non-finite values: {exc}") from None


def _csv_text(columns, rows) -> str:
    """A header line of ``columns``, then one line per row of shortest
    round-trip decimals, fixed across runs; NaN and Inf are refused."""
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"refusing to serialize non-finite values: {columns}")
    lines = [",".join(map(repr, row)) for row in rows.tolist()]
    return "\n".join([",".join(columns), *lines]) + "\n"


def _write_files(out_dir, texts) -> list:
    """The one place the package writes files: make ``out_dir``, then write
    each text of ``texts`` (file name -> full text) as UTF-8 into a new
    file of that name, the old file or symlink there removed first, and
    return the written paths.

    Texts are built, and their non-finite values refused, before this is
    called, so a refusal leaves no byte behind. A new file never writes
    through a symlink, and, unlike a rewrite that truncates in place, does
    not wait for the old contents to reach disk; nothing is fsynced. An
    ``out_dir`` of None or "" is refused with ValueError, and a directory
    or file the OS will not make raises OSError naming the path.
    """
    if out_dir is None or out_dir == "":
        raise ValueError("no output directory given")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}")
    for name, text in texts.items():
        (out / name).unlink(missing_ok=True)
        with open(out / name, "xb") as fh:
            fh.write(text.encode("utf-8"))
    return [out / name for name in texts]
