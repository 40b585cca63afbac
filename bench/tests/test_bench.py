"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_loop  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _smoke(name, tmp_path, seed=7):
    return workloads.WORKLOADS[name](seed, tmp_path, size="smoke")


@pytest.mark.parametrize("name", NAMES)
def test_job_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    first = [_smoke(name, tmp_path).job_inputs(i) for i in range(3)]
    again = [_smoke(name, tmp_path).job_inputs(i) for i in range(3)]
    other = [_smoke(name, tmp_path, seed=8).job_inputs(i) for i in range(3)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert first[0] != first[1]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_workload_runs_in_seconds_and_passes(name, tmp_path):
    start = time.perf_counter()
    workload = _smoke(name, tmp_path)
    workload.warm_up()
    records, outcomes, _ = run_loop(workload, [0, 1], None, None)
    assert time.perf_counter() - start < 60.0
    assert [r["problems"] for r in records] == [[], []]
    assert all(r["seconds"] > 0.0 and r["paths"] > 0 for r in records)
    assert workload.pooled_problems(outcomes) == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_payloads_match(name, tmp_path):
    workload = _smoke(name, tmp_path)
    workload.warm_up()
    plain = workload.inspect(0, workload.run_job(0))
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.inspect(0, workload.run_job(0))
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert traced.stats == plain.stats
    metrics = tracer.layer_metrics()
    layer = {"mc-martingale": "localtime.martingale_part",
             "level-curve": "localtime.tanaka_curve",
             "law-checks": "pathsim.sample_terminal_jumpdecomp"}[name]
    assert metrics[f"{layer}.calls"] >= 1 and metrics[f"{layer}.s"] > 0.0


def test_uninstall_restores_the_package_functions():
    import stable_tanaka.localtime as lt

    before = lt.martingale_part
    tracer = Tracer()
    tracer.install()
    assert lt.martingale_part is not before
    tracer.uninstall()
    assert lt.martingale_part is before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0]]
    assert tracer.self_times() == [7.0, 3.0]


def test_reference_check_catches_a_wrong_result(tmp_path):
    reference = workloads.load_reference()
    workload = workloads.McMartingale(workloads.DEFAULT_SEED, tmp_path)
    rows = reference[workload.name]
    stats = dict(zip(rows["keys"], rows["jobs"][0]))
    assert workload.reference_problems(0, stats, reference) == []
    key = next(k for k in stats if k.endswith(".mean"))
    nudged = dict(stats, **{key: stats[key] + 1e-4})
    assert workload.reference_problems(0, nudged, reference) == []
    wrong = dict(stats, **{key: stats[key] + 0.05})
    assert workload.reference_problems(0, wrong, reference)


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "law-checks",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
