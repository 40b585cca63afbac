"""Command-line front end.

``stable-tanaka run spec.json`` executes one experiment spec and prints a
verdict line per criterion; ``density``, ``simulate``, and ``localtime``
are convenience wrappers that assemble the matching spec or write path and
curve files directly. Their process, simulation and density flags are
built from the spec's declarations of those fields, so each flag has the
spec's default, type and range, and its value is checked by the same
call as the spec's. Exit codes: 0 all verdicts passed, 1 at least one
FAIL, 2 configuration error. The output directory is ``--out``, else a
run spec's ``out_dir``, else ``STABLE_TANAKA_OUT``, an empty one counting
as unset, and is checked before any compute; all outputs are UTF-8 JSON
or CSV, written as new files, and one the OS refuses exits 2 as well.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from .experiments import (
    ConfigError,
    ExperimentSpec,
    _KINDS,
    _PARAMS,
    _PARAMS_FIELDS,
    _SIM,
    _SIM_FIELDS,
    _bundle_dir,
    _check_jump_counts,
    _csv_text,
    _json_text,
    _read_inputs,
    _write_files,
    emit_report,
    run_experiment,
)
from .localtime import default_a_grid, default_mollifier, occupation_curve, \
    tanaka_curve
from .pathsim import _stream_key, simulate_path_jumpdecomp, \
    simulate_path_marginal
from .spectral import ResolutionError

OUT_ENV_VAR = "STABLE_TANAKA_OUT"


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
    except RecursionError:
        raise ConfigError(f"override {key!r} is nested too deeply "
                          f"to parse") from None
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"cannot descend into {part!r} in override "
                              f"{assignment!r}")
        node = nxt
    node[parts[-1]] = value


# the density command's flags for the density-report options it sets
_DENSITY_FLAGS = {"times": "--t", "half_width": "--half-width",
                  "n_points": "--n-points"}
# what argparse takes for a negative number rather than a flag; its own
# pattern has no exponent, so "--x0 -1e-3" failed
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _flags(p: argparse.ArgumentParser, table: dict, flags=None):
    """One flag per ``flags`` entry (field name -> flag; by default each
    field of ``table`` as a dashed flag), with the type and default of the
    field's ``table`` entry; a flag without a default is required. The
    range is checked with the other inputs, as a spec's, so a value
    outside it is a config error."""
    for name, flag in (flags or {n: "--" + n.replace("_", "-")
                                 for n in table}).items():
        opt = table[name]
        default = "" if opt.default is None else ", default %(default)s"
        p.add_argument(flag, dest=name,
                       type=int if opt.type == "int" else float,
                       nargs="+" if opt.type == "floats" else None,
                       default=opt.default, required=opt.default is None,
                       help=f"in {opt.range}{default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-tanaka",
        description="Stable-process local-time toolkit: experiments, "
                    "densities, paths, and local-time curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment spec file")
    run_p.add_argument("spec", help="path to a JSON experiment spec")
    run_p.add_argument("--out", default=None,
                       help="output directory (overrides spec.out_dir "
                            f"and ${OUT_ENV_VAR})")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path spec override, e.g. "
                            "options.n_paths=50 (repeatable)")

    den_p = sub.add_parser("density",
                           help="transition-density report and curves")
    _flags(den_p, _PARAMS_FIELDS)
    _flags(den_p, _KINDS["density-report"].options, _DENSITY_FLAGS)
    den_p.add_argument("--out", default=None)

    sim_p = sub.add_parser("simulate", help="write simulated paths as CSV")
    lt_p = sub.add_parser("localtime",
                          help="estimate a local-time curve on one path")
    for p in (sim_p, lt_p):
        _flags(p, _PARAMS_FIELDS)
        _flags(p, _SIM_FIELDS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
    sim_p.add_argument("--n-paths", type=int, default=1)
    sim_p.add_argument("--scheme", choices=("jumpdecomp", "marginal"),
                       default="jumpdecomp")
    lt_p.add_argument("--path-index", type=int, default=0)
    lt_p.add_argument("--levels", type=float, nargs="+", default=None,
                      help="levels a (default: 201 uniform over the "
                           "path range with unit margin)")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
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
    # a directory or a device is refused unread: a read from a FIFO blocks
    if not spec_path.is_file():
        what = "is not a regular file" if spec_path.exists() else "not found"
        raise ConfigError(f"spec file {what}: {args.spec}")
    try:
        text = spec_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read spec file {args.spec}: {exc}") from None
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ConfigError(f"spec file {args.spec} is nested too deeply "
                          f"to parse") from None
    if not isinstance(raw, dict):
        raise ConfigError("spec must be a JSON object")
    for assignment in args.override:
        _apply_override(raw, assignment)
    out_dir = raw.pop("out_dir", None)
    if not isinstance(out_dir, (str, type(None))):
        raise ConfigError("out_dir must be a string or null")
    # built once, without out_dir, which the report's inputs keep null:
    # _finish writes the one bundle, to out
    spec = ExperimentSpec.from_dict(raw)
    out = _out_target(args, fallback=out_dir)
    return _finish(run_experiment(spec), out)


def _cmd_density(args) -> int:
    spec = ExperimentSpec(kind="density-report",
                          params=_given(args, _PARAMS_FIELDS),
                          options=_given(args, _DENSITY_FLAGS))
    out = _out_target(args)
    return _finish(run_experiment(spec), out)


def _out_target(args, what=None, fallback=None) -> Path | None:
    """The output directory: ``--out``, else ``fallback`` (the spec's
    out_dir, for ``run``), else ``$STABLE_TANAKA_OUT``, an empty string
    counting as unset; refused before any compute unless it exists or can
    be made. A command that writes ``what`` exits 2 without one."""
    out = _bundle_dir(args.out or fallback or os.environ.get(OUT_ENV_VAR))
    if out is None and what is not None:
        raise ConfigError(f"{args.command} needs --out or ${OUT_ENV_VAR} to "
                          f"know where to put the {what}")
    return out


def _given(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def _path_inputs(args):
    """The process parameters and SimConfig that the flags give, read as a
    spec's blocks are, and refused, as a spec's are, if the paths to draw
    record jumps and their count cannot be drawn."""
    params, cfg = _read_inputs(
        args.command, _PARAMS + _SIM, _given(args, _PARAMS_FIELDS),
        _given(args, _SIM_FIELDS), args.seed)
    if getattr(args, "scheme", "jumpdecomp") == "jumpdecomp":
        _check_jump_counts(params, [cfg])
    return params, cfg


def _cmd_simulate(args) -> int:
    out_dir = _out_target(args, "paths")
    params, cfg = _path_inputs(args)
    if args.n_paths < 1:
        raise ConfigError("--n-paths must be >= 1")
    simulate = simulate_path_jumpdecomp if args.scheme == "jumpdecomp" \
        else simulate_path_marginal
    for i in range(args.n_paths):
        path = simulate(params, cfg, path_index=i)
        csv, _ = _write_files(out_dir, {
            f"path_{i:04d}.csv": _csv_text(
                ["time", "value"], np.column_stack([path.times, path.values])),
            f"path_{i:04d}.json": _json_text(
                {"scheme": path.scheme, "config": asdict(cfg),
                 "jumps": path.jumps.tolist()}),
        })
        print(f"wrote {csv}")
    return 0


def _cmd_localtime(args) -> int:
    out_dir = _out_target(args, "curve")
    params, cfg = _path_inputs(args)
    try:
        _stream_key("--path-index", args.path_index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.levels and not np.all(np.isfinite(args.levels)):
        raise ConfigError("--levels must be finite numbers")
    path = simulate_path_jumpdecomp(params, cfg, path_index=args.path_index)
    levels = np.asarray(args.levels, dtype=float) if args.levels \
        else default_a_grid(path)
    moll = default_mollifier(cfg.eps)
    occ = occupation_curve(path, levels, moll)
    tan = tanaka_curve(params, path, levels)
    meta = {
        **_given(args, _PARAMS_FIELDS),
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
    curve_path, meta_path = _write_files(out_dir, {
        "localtime_curve.csv": _csv_text(["a", "occupation", "tanaka"],
                                         np.column_stack([levels, occ, tan])),
        "localtime_meta.json": _json_text(meta),
    })
    print(f"wrote {curve_path} and {meta_path}")
    return 0


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was (an appended list is a copy of
    # its default), so one serves every call in the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"run": _cmd_run, "density": _cmd_density,
                "simulate": _cmd_simulate, "localtime": _cmd_localtime}
    try:
        return handlers[args.command](args)
    # ResolutionError: localtime's level grid; OSError: an output the OS
    # refuses, its path named
    except (ConfigError, ResolutionError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a jump count its arrays cannot hold
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
