"""Per-layer tracing by wrapping public functions where callers look them up.

The package has no instrumentation of its own. The tracer replaces module
attributes with wrappers that record a span per call (name, start, end,
parent span, job id) and per-call work counts, and restores them on
``uninstall``. Calls a module makes to its own functions are not seen,
except where a caller module looks the function up as listed in ``SITES``.
Spans stay in memory and are written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _points_up_to(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    t = _arg(args, kwargs, 3, "t")
    n = len(path.times) if t is None else \
        int(np.searchsorted(path.times, t, side="right"))
    return {"points": n}


def _path_counts(args, kwargs, result):
    return {"grid_points": len(result.times), "jumps": len(result.jumps)}


def _bytes_of(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _cli_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" not in argv:
        return {"bytes_written": 0}
    out = Path(argv[argv.index("--out") + 1])
    return {"bytes_written": _bytes_of(p for p in out.iterdir()
                                       if p.is_file())}


# layer metric prefix -> per-call work counter
COUNTERS = {
    "kernel.kernel_F": lambda a, k, r: {"points": np.size(_arg(a, k, 1, "x"))},
    "kernel.kernel_convolve":
        lambda a, k, r: {"points": np.size(_arg(a, k, 2, "x"))},
    "localtime.martingale_part": _points_up_to,
    "localtime.tanaka_curve":
        lambda a, k, r: {"levels": np.size(_arg(a, k, 2, "a_grid"))},
    "localtime.occupation_curve":
        lambda a, k, r: {"levels": np.size(_arg(a, k, 1, "a_grid"))},
    "pathsim.simulate_path_jumpdecomp": _path_counts,
    "pathsim.sample_terminal_jumpdecomp":
        lambda a, k, r: {"paths": int(_arg(a, k, 2, "n_paths"))},
    "pathsim.sample_stable_increment":
        lambda a, k, r: {"draws": int(_arg(a, k, 3, "size") or 1)},
    "spectral.transition_density":
        lambda a, k, r: {"fft_points": _arg(a, k, 2, "grid").n_points},
    "experiments.emit_report": lambda a, k, r: {"report_bytes": _bytes_of(r)},
    "cli.main": _cli_bytes,
}

# (module where callers look the function up, attribute, layer metric prefix)
SITES = [
    ("stable_tanaka.experiments", "compensator_table",
     "kernel.compensator_table"),
    ("stable_tanaka.localtime", "compensator_table",
     "kernel.compensator_table"),
    ("stable_tanaka.localtime", "kernel_F", "kernel.kernel_F"),
    ("stable_tanaka.experiments", "kernel_convolve", "kernel.kernel_convolve"),
    ("stable_tanaka.experiments", "martingale_part",
     "localtime.martingale_part"),
    ("stable_tanaka.localtime", "martingale_part",
     "localtime.martingale_part"),
    ("stable_tanaka.cli", "tanaka_curve", "localtime.tanaka_curve"),
    ("stable_tanaka.localtime", "tanaka_curve", "localtime.tanaka_curve"),
    ("stable_tanaka.cli", "occupation_curve", "localtime.occupation_curve"),
    ("stable_tanaka.localtime", "occupation_curve",
     "localtime.occupation_curve"),
    ("stable_tanaka.experiments", "simulate_path_jumpdecomp",
     "pathsim.simulate_path_jumpdecomp"),
    ("stable_tanaka.cli", "simulate_path_jumpdecomp",
     "pathsim.simulate_path_jumpdecomp"),
    ("stable_tanaka.pathsim", "sample_terminal_jumpdecomp",
     "pathsim.sample_terminal_jumpdecomp"),
    ("stable_tanaka.pathsim", "sample_stable_increment",
     "pathsim.sample_stable_increment"),
    ("stable_tanaka.experiments", "sample_stable_increment",
     "pathsim.sample_stable_increment"),
    ("stable_tanaka.experiments", "transition_density",
     "spectral.transition_density"),
    ("stable_tanaka.experiments", "generator_apply_windowed",
     "spectral.generator_apply_windowed"),
    ("stable_tanaka.experiments", "char_function", "spectral.char_function"),
    ("stable_tanaka.experiments", "run_experiment",
     "experiments.run_experiment"),
    ("stable_tanaka.cli", "run_experiment", "experiments.run_experiment"),
    ("stable_tanaka.experiments", "emit_report", "experiments.emit_report"),
    ("stable_tanaka.cli", "emit_report", "experiments.emit_report"),
    ("stable_tanaka.cli", "main", "cli.main"),
]


class Tracer:
    """Span and counter recorder; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = defaultdict(float)
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, prefix: str, fn):
        counter = COUNTERS.get(prefix)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [prefix, 0.0, 0.0, parent, self.job]
            self.spans.append(span)
            self._stack.append(index)
            misses = cache_info().misses if cache_info else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if cache_info:
                self.counts[f"{prefix}.builds"] += cache_info().misses - misses
            if counter:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[f"{prefix}.{key}"] += n
            return result

        return traced

    def install(self) -> None:
        """Wrap every site that exists; a missing function is skipped."""
        for module_name, attr, prefix in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(prefix, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict:
        """Totals per layer metric prefix, plus the derived rates."""
        out = defaultdict(float, self.counts)
        for (name, start, end, _, _), own in zip(self.spans,
                                                  self.self_times()):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
        ct = "kernel.compensator_table"
        if out[f"{ct}.calls"]:
            out[f"{ct}.hit_ratio"] = 1.0 - out[f"{ct}.builds"] \
                / out[f"{ct}.calls"]
        rates = [
            ("localtime.martingale_part.ns_per_point",
             "localtime.martingale_part.s",
             "localtime.martingale_part.points", 1e9),
            ("pathsim.simulate_path_jumpdecomp.ns_per_point",
             "pathsim.simulate_path_jumpdecomp.s",
             "pathsim.simulate_path_jumpdecomp.grid_points", 1e9),
            ("pathsim.sample_terminal_jumpdecomp.us_per_path",
             "pathsim.sample_terminal_jumpdecomp.s",
             "pathsim.sample_terminal_jumpdecomp.paths", 1e6),
        ]
        for name, seconds, work, scale in rates:
            if out[work]:
                out[name] = out[seconds] / out[work] * scale
        sim = "pathsim.simulate_path_jumpdecomp"
        out["pathsim.grid_points"] = out[f"{sim}.grid_points"]
        out["pathsim.jumps"] = out[f"{sim}.jumps"]
        return dict(out)

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, name, start, end, parent, job, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent, job), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps([i, name, start, end, parent, job, own])
                         + "\n")
