"""Record the default-seed reference statistics into ``reference.json``.

    python3 bench/record_reference.py

Runs the first jobs of every workload at ``DEFAULT_SEED`` with the package
under ``src/`` and stores each job's statistics. The benchmark compares
default-seed jobs against them within per-statistic tolerances. Re-record
only when a change is meant to alter results, and say so where the change
is described.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# jobs per workload with a reference; later jobs get the any-seed checks only
REFERENCE_JOBS = {"mc-martingale": 128, "level-curve": 48, "law-checks": 4}


def _rounded(value):
    if isinstance(value, bool):
        return value
    return float(f"{value:.12g}")


def main() -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import workloads

    reference = {"seed": workloads.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED, Path(".bench_scratch"))
        workload.warm_up()
        keys, rows = None, []
        for index in range(REFERENCE_JOBS[name]):
            outcome = workload.inspect(index, workload.run_job(index))
            if outcome.problems:
                raise SystemExit(f"{name} job {index}: {outcome.problems}")
            if keys is None:
                keys = sorted(outcome.stats)
            rows.append([_rounded(outcome.stats[k]) for k in keys])
        reference[name] = {"keys": keys, "jobs": rows}
        print(f"{name}: {len(rows)} jobs", file=sys.stderr)
    text = json.dumps(reference, separators=(",", ":"))
    workloads.REFERENCE_FILE.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
