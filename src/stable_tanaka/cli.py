"""Command-line front end.

``stable-tanaka run spec.json`` executes one experiment spec and prints a
verdict line per criterion; ``density``, ``simulate``, and ``localtime``
are convenience wrappers that assemble the matching spec or write path and
curve files directly. Exit codes: 0 all verdicts passed, 1 at least one
FAIL, 2 configuration error. ``STABLE_TANAKA_OUT`` supplies a default
output directory; all outputs are UTF-8 JSON or CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .experiments import (
    ConfigError,
    ExperimentSpec,
    emit_report,
    run_experiment,
    write_csv,
    write_json,
)
from .localtime import default_a_grid, default_mollifier, occupation_curve, \
    tanaka_curve
from .params import derive_params
from .pathsim import SimConfig, expected_jump_count, \
    simulate_path_jumpdecomp, simulate_path_marginal
from .spectral import ResolutionError

OUT_ENV_VAR = "STABLE_TANAKA_OUT"


def _default_out(explicit):
    if explicit is not None:
        return explicit
    return os.environ.get(OUT_ENV_VAR)


def _apply_override(raw: dict, assignment: str):
    """Apply one dotted key=value override onto the raw spec dict."""
    key, sep, text = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key=value, "
                          f"got {assignment!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text  # bare strings are allowed unquoted
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"cannot descend into {part!r} in override "
                              f"{assignment!r}")
        node = nxt
    node[parts[-1]] = value


def _params_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, required=True,
                   help="stability index in (1, 2)")
    p.add_argument("--c-plus", type=float, default=1.0,
                   help="positive-jump intensity (default 1)")
    p.add_argument("--c-minus", type=float, default=1.0,
                   help="negative-jump intensity (default 1)")


def _sim_args(p: argparse.ArgumentParser):
    p.add_argument("--T", type=float, default=1.0, help="horizon")
    p.add_argument("--n-steps", type=int, default=512,
                   help="base grid steps")
    p.add_argument("--eps", type=float, default=1e-2,
                   help="small-jump cutoff")
    p.add_argument("--small-jump-mode", choices=("gaussian", "drop"),
                   default="gaussian")
    p.add_argument("--x0", type=float, default=0.0, help="starting point")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-tanaka",
        description="Stable-process local-time toolkit: experiments, "
                    "densities, paths, and local-time curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment spec file")
    run_p.add_argument("spec", help="path to a JSON experiment spec")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed")
    run_p.add_argument("--out", default=None,
                       help="output directory (overrides spec.out_dir "
                            f"and ${OUT_ENV_VAR})")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path spec override, e.g. "
                            "options.n_paths=50 (repeatable)")

    den_p = sub.add_parser("density",
                           help="transition-density report and curves")
    _params_args(den_p)
    den_p.add_argument("--t", type=float, nargs="+", default=[0.5, 1.0],
                       help="time points")
    den_p.add_argument("--half-width", type=float, default=80.0)
    den_p.add_argument("--n-points", type=int, default=2 ** 15)
    den_p.add_argument("--out", default=None)

    sim_p = sub.add_parser("simulate", help="write simulated paths as CSV")
    _params_args(sim_p)
    _sim_args(sim_p)
    sim_p.add_argument("--n-paths", type=int, default=1)
    sim_p.add_argument("--scheme", choices=("jumpdecomp", "marginal"),
                       default="jumpdecomp")
    sim_p.add_argument("--out", default=None)

    lt_p = sub.add_parser("localtime",
                          help="estimate a local-time curve on one path")
    _params_args(lt_p)
    _sim_args(lt_p)
    lt_p.add_argument("--path-index", type=int, default=0)
    lt_p.add_argument("--levels", type=float, nargs="+", default=None,
                      help="levels a (default: 201 uniform over the "
                           "path range with unit margin)")
    lt_p.add_argument("--out", default=None)
    return parser


def _finish(report, out) -> int:
    """Print the verdicts and wall time, write the bundle to ``out`` if set,
    and return the exit code."""
    for line in report.summary_lines():
        print(line)
    print(f"wall time: {report.wall_time_s:.2f}s")
    if out is not None:
        paths = emit_report(report, out)
        print("wrote " + ", ".join(str(p) for p in paths))
    return 0 if report.all_passed else 1


def _cmd_run(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ConfigError(f"spec file not found: {args.spec}")
    try:
        text = spec_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read spec file {args.spec}: {exc}") from None
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ConfigError("spec must be a JSON object")
    for assignment in args.override:
        _apply_override(raw, assignment)
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = ExperimentSpec.from_dict(raw)
    out = _out_path(args.out or spec.out_dir or _default_out(None))
    # _finish writes the one bundle, to out
    report = run_experiment(replace(spec, out_dir=None))
    return _finish(report, out)


def _cmd_density(args) -> int:
    spec = ExperimentSpec(
        kind="density-report",
        params={"alpha": args.alpha, "c_plus": args.c_plus,
                "c_minus": args.c_minus},
        options={"times": list(args.t), "half_width": args.half_width,
                 "n_points": args.n_points})
    out = _out_path(_default_out(args.out))
    return _finish(run_experiment(spec), out)


def _out_path(out) -> Path | None:
    """``out`` as a Path (None stays None), refused before any compute if
    it, or the nearest part of it that exists, is not a directory."""
    if out is None:
        return None
    found = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"output directory {out}: {found} exists and is "
                          "not a directory")
    return Path(out)


def _out_dir(args, what: str) -> Path:
    out = _out_path(_default_out(args.out))
    if out is None:
        raise ConfigError(f"{args.command} needs --out or ${OUT_ENV_VAR} to "
                          f"know where to put the {what}")
    return out


def _make_inputs(args):
    """Process parameters and SimConfig from the command line, refused if
    the paths to draw record jumps and their count cannot be drawn."""
    try:
        params = derive_params(args.alpha, args.c_plus, args.c_minus)
        cfg = SimConfig(T=args.T, n_steps=args.n_steps, eps=args.eps,
                        small_jump_mode=args.small_jump_mode,
                        seed=args.seed, x0=args.x0)
        if getattr(args, "scheme", "jumpdecomp") == "jumpdecomp":
            expected_jump_count(params, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return params, cfg


def _cmd_simulate(args) -> int:
    out_dir = _out_dir(args, "paths")
    params, cfg = _make_inputs(args)
    if args.n_paths < 1:
        raise ConfigError("--n-paths must be >= 1")
    simulate = simulate_path_jumpdecomp if args.scheme == "jumpdecomp" \
        else simulate_path_marginal
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.n_paths):
        path = simulate(params, cfg, path_index=i)
        csv = out_dir / f"path_{i:04d}.csv"
        write_csv(csv, ["time", "value"], zip(path.times, path.values))
        write_json(out_dir / f"path_{i:04d}.json",
                   {"scheme": path.scheme, "config": asdict(cfg),
                    "jumps": path.jumps.tolist()})
        print(f"wrote {csv}")
    return 0


def _cmd_localtime(args) -> int:
    out_dir = _out_dir(args, "curve")
    params, cfg = _make_inputs(args)
    if not 0 <= args.path_index < 2**64:
        raise ConfigError("--path-index must be an integer in [0, 2^64)")
    if args.levels and not np.all(np.isfinite(args.levels)):
        raise ConfigError("--levels must be finite numbers")
    path = simulate_path_jumpdecomp(params, cfg, path_index=args.path_index)
    levels = np.asarray(args.levels, dtype=float) if args.levels \
        else default_a_grid(path)
    moll = default_mollifier(cfg.eps)
    occ = occupation_curve(path, levels, moll)
    tan = tanaka_curve(params, path, levels)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "localtime_curve.csv"
    write_csv(curve_path, ["a", "occupation", "tanaka"], zip(levels, occ, tan))
    meta = {
        "alpha": args.alpha, "c_plus": args.c_plus, "c_minus": args.c_minus,
        "sim": asdict(cfg),
        "path_index": args.path_index,
        "horizon": float(path.times[-1]),
        "n_jumps": len(path.jump_sizes),
        "estimators": {
            "occupation": {"mollifier_n": moll.n},
            "tanaka": {"eps": cfg.eps},
        },
        "levels": [float(a) for a in levels],
    }
    meta_path = out_dir / "localtime_meta.json"
    write_json(meta_path, meta)
    print(f"wrote {curve_path} and {meta_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "density": _cmd_density,
                "simulate": _cmd_simulate, "localtime": _cmd_localtime}
    try:
        return handlers[args.command](args)
    except (ConfigError, ResolutionError) as exc:  # localtime's level grid
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
