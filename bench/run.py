"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload mc-martingale --seed 0 --seconds 5 --trace 0

Runs from the root of a source checkout and measures the package under
``src/``. With ``--trace 0`` it starts three fresh worker processes one
after another; each imports the package and runs a warm-up job, which gives
three set-up times, and the last one then runs the timed closed loop. With
``--trace 1`` one worker runs the loop untraced, replays its first jobs
traced and reports the per-layer metrics.

Worker processes run single-threaded (BLAS and OpenMP pools pinned to one
thread) and write only under ``.bench_scratch/`` in the checkout.

The host's speed drifts by tens of percent from minute to minute, so
reported times are scaled to a reference speed: each worker times a fixed
calibration mix next to its measurements, and a time ``t`` is reported as
``t * CAL_REF_S / mean(calibration)``: the mean, like a throughput, weighs
every stretch of the run by its length. The raw wall-clock values and the
speed factors are in the context line.

``paths_per_s`` counts grid paths on mc-martingale and level-curve and
terminal-value paths of the criterion-4 sampler on law-checks.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it carries the context: seed, sample
counts, p90 when at least 10 samples lie beyond it, ``fail_frac`` and the
failures, raw times and machine facts. The exit code is 0 only when every
job and every pooled check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
# calibration time on the 2-core 2.1 GHz Xeon the benchmark was defined on,
# idle; only the scale of the reported times depends on it
CAL_REF_S = 0.0135
DEADLINE_S = 170.0
# a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    # compile from source in every worker, so set-up times stay comparable
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args, mode: str, deadline: float) -> dict:
    spawned = _now()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawned", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = _now() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "stable_tanaka" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    if args.trace:
        runs = [_worker(args, "trace", deadline)]
    else:
        runs = [_worker(args, "setup", deadline)
                for _ in range(SETUP_RUNS - 1)]
        runs.append(_worker(args, "loop", deadline))
    loop = runs[-1]

    jobs = [j for j in loop["jobs"] if not j.get("traced")]
    failures = [p for j in loop["jobs"] for p in j["problems"]] \
        + loop["pooled_problems"]
    failed = sum(1 for j in loop["jobs"] if j["problems"])
    if loop["pooled_problems"]:
        # a pooled check speaks for every job it pooled
        failed = len(loop["jobs"])
    attempted = len(loop["jobs"])

    times = [j["seconds"] for j in jobs]
    busy = sum(times)
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "paths_per_s": sum(j["paths"] for j in jobs) / busy,
        "jobs_per_s": len(jobs) / busy,
        "job_s_p50": statistics.median(times),
    }
    setup_speed = [statistics.fmean(r["setup_cal"]) / CAL_REF_S
                   for r in runs]
    if args.trace:
        metrics = loop["layers"]
        speed = 1.0
    else:
        speed = statistics.fmean(loop["loop_cal"]) / CAL_REF_S
        metrics = {
            "setup_s": statistics.median(
                r["setup_s"] / f for r, f in zip(runs, setup_speed)),
            "paths_per_s": raw["paths_per_s"] * speed,
            "jobs_per_s": raw["jobs_per_s"] * speed,
            "job_s_p50": raw["job_s_p50"] / speed,
            "peak_rss_mb": loop["peak_rss_mb"],
        }
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    result_metrics = {name: {"value": float(metrics.get(name, 0.0)),
                             "unit": unit}
                      for name, unit in units.items()}

    p90 = None
    if len(times) * 0.1 >= TAIL_SAMPLES:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] \
            / speed
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_samples": len(times),
        "job_s_p90": p90,
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "setup_s_samples": [r["setup_s"] / f
                            for r, f in zip(runs, setup_speed)],
        "raw_wall": raw,
        "raw_setup_s_samples": [r["setup_s"] for r in runs],
        "speed_factor_setup": setup_speed,
        "speed_factor_loop": speed,
        "peak_rss_mb": loop["peak_rss_mb"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "versions": loop["versions"],
    }
    if args.trace:
        context["spans_file"] = loop["spans_file"]
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
