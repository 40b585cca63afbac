"""One benchmark process: import, warm up, then (optionally) the job loop.

``run.py`` starts this script in fresh processes. It prints exactly one
JSON line on stdout. Modes:

* ``setup`` -- import and warm up, report the set-up time, exit;
* ``loop``  -- the same, then the timed closed loop of jobs, untraced;
* ``trace`` -- warm up traced, run the loop untraced, replay its first
  jobs traced, and report the per-layer metrics and the overhead.

Set-up time runs from ``--spawned`` (CLOCK_MONOTONIC, read by the parent
just before it started this process) to the end of the warm-up job.

The machine this runs on shares its cores, and its speed drifts by tens of
percent over minutes. Each worker therefore also times a fixed calibration
mix (``calibration``) next to its measurements: before and after the
warm-up, before every job and after the last one. ``run.py`` scales the reported
times by the ratio of the calibration's mean to ``CAL_REF_S``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = Path(".bench_scratch")
# jobs replayed under tracing, so per-layer totals cover a fixed amount of
# work (fewer only if the untraced loop completed fewer)
TRACE_JOBS = {"mc-martingale": 64, "level-curve": 4, "law-checks": 1}
# calibration repeats per burst: a few percent of a job's time
CAL_REPS = {"mc-martingale": 1, "level-curve": 5, "law-checks": 2}
SETUP_CAL_REPS = 10


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def calibration(reps: int) -> list:
    """Wall times of a fixed mix of interpreter, numpy and quadrature work.

    The mix stands in for the package's own work: a Python-level loop,
    numpy passes over path-sized arrays and scipy quadrature of a Python
    integrand. It does not touch the package, so its time follows the
    machine's speed alone.
    """
    import numpy as np
    from scipy import integrate

    a = np.random.default_rng(0).random(40_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i
        for _ in range(10):
            np.searchsorted(np.cumsum(np.sqrt(a) * a), a)
        integrate.quad(lambda u: math.sqrt(u) * math.exp(-u), 0.0, 50.0,
                       limit=200)
        times.append(time.perf_counter() - t0)
    return times


def run_loop(workload, indices, seconds, reference, tracer=None,
             cal_reps=0):
    """Closed loop: run jobs until ``seconds`` of wall time have passed.

    With ``indices`` given, run exactly those jobs instead. Only the job
    call is timed; reading back and checking outputs happens after it.
    ``tracer``, if given, tags the spans of each job with its index.
    With ``cal_reps``, a calibration burst runs before every job, between
    the steps of a job and after the last job; its times are returned
    third and the bursts inside a job are not counted in the job's time.
    """
    records, outcomes, cal = [], [], []
    paused = [0.0]

    def burst():
        if cal_reps:
            t0 = time.perf_counter()
            cal.extend(calibration(cal_reps))
            paused[0] += time.perf_counter() - t0

    workload.step = burst
    start = _now()
    index = 0
    while True:
        if indices is not None:
            if index >= len(indices):
                break
            job = indices[index]
        elif index and _now() - start >= seconds:
            break
        else:
            job = index
        if tracer is not None:
            tracer.job = job
        burst()
        paused[0] = 0.0
        t0 = time.perf_counter()
        try:
            raw = workload.run_job(job)
            elapsed = time.perf_counter() - t0 - paused[0]
            outcome = workload.inspect(job, raw)
        except Exception as exc:  # a raising job counts as failed
            elapsed = time.perf_counter() - t0 - paused[0]
            outcome = None
            problems = [f"job {job} raised {type(exc).__name__}: {exc}"]
        else:
            problems = outcome.problems + workload.reference_problems(
                job, outcome.stats, reference)
        records.append({"job": job, "seconds": elapsed,
                        "paths": outcome.paths if outcome else 0,
                        "digest": outcome.digest if outcome else None,
                        "problems": problems})
        outcomes.append(outcome)
        index += 1
    burst()
    return records, outcomes, cal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "loop", "trace"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    import workloads
    from tracer import Tracer

    imported = _now()
    # calibrate on both sides of the warm-up, outside the set-up time
    setup_cal = calibration(SETUP_CAL_REPS)
    tracer = Tracer()
    if args.mode == "trace":
        tracer.job = "setup"
        tracer.install()
    warm_start = _now()
    workload = workloads.WORKLOADS[args.workload](args.seed, SCRATCH)
    workload.warm_up()
    setup_s = imported - args.spawned + _now() - warm_start
    tracer.uninstall()
    setup_cal += calibration(SETUP_CAL_REPS)
    result = {"setup_s": setup_s, "versions": versions(),
              "setup_cal": setup_cal}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    reference = workloads.load_reference()
    records, outcomes, cal = run_loop(
        workload, None, args.seconds, reference,
        cal_reps=0 if args.mode == "trace" else CAL_REPS[args.workload])
    good = [o for o in outcomes if o is not None and not o.problems]
    result["pooled_problems"] = workload.pooled_problems(good)
    result["jobs"] = records
    result["loop_cal"] = cal
    if args.mode == "trace":
        n = min(len(records), TRACE_JOBS[args.workload])
        tracer.install()
        traced, _, _ = run_loop(workload, list(range(n)), None, reference,
                             tracer)
        tracer.uninstall()
        for rec in traced:
            rec["traced"] = True
        plain_s = sum(r["seconds"] for r in records[:n])
        traced_s = sum(r["seconds"] for r in traced)
        mismatched = [r["job"] for r, t in zip(records, traced)
                      if r["digest"] != t["digest"]]
        if mismatched:
            result["pooled_problems"].append(
                f"traced payloads differ from untraced for jobs {mismatched}")
        metrics = tracer.layer_metrics()
        # the same jobs' throughput with and without tracing
        metrics["trace.overhead_frac"] = 1.0 - plain_s / traced_s
        result["jobs"] = records + traced
        result["layers"] = metrics
        spans_path = SCRATCH / args.workload / "spans.jsonl"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
