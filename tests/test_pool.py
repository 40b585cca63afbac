"""The pool behind the package's loops over independent work.

``pathsim._run_all`` runs tasks on a pool of one thread fewer than the
usable CPUs, and ``pathsim._blocks`` splits path indices into one block per
CPU, none shorter than ``pathsim._MIN_BLOCK``. Pinned here: the same bytes
at every pool size, short calls inline, the serial loop's exception, a
working pool in a child made by fork, and no thread started anywhere else
in the package.
"""

import ast
import hashlib
import json
import multiprocessing
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from stable_tanaka import cli, experiments, pathsim
from stable_tanaka.experiments import _path_rows, emit_report, run_experiment
from stable_tanaka.localtime import default_a_grid, tanaka_curve
from stable_tanaka.params import derive_params
from stable_tanaka.pathsim import (
    SimConfig,
    sample_terminal_jumpdecomp,
    simulate_path_jumpdecomp,
)

PACKAGE = Path(pathsim.__file__).resolve().parent
SYM = derive_params(1.5, 1.0, 1.0)
# criterion 4's terminal draws
CRITERION_4 = SimConfig(T=1.0, n_steps=16, eps=1e-3, seed=2024)

# sha256 (first 16 hex digits) of each output, recorded with the serial
# loops that came before the pool
_BUNDLES = {
    "martingale-zero-mean": ({
        "kind": "martingale-zero-mean",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 256, "eps": 1e-2}, "seed": 31,
        "options": {"n_paths": 40, "levels": [0.0, 0.5],
                    "checkpoints": [0.25, 0.5, 1.0]}},
        "c3b611d62e2548f4"),
    "estimator-agreement": ({
        "kind": "estimator-agreement",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 64}, "seed": 3,
        "options": {"n_paths": 9, "level": 0.0,
                    "schedule": [[0.1, 64], [0.05, 128]]}},
        "40fba40905d66261"),
}
_TERMINAL = "bd43563ead8b3368"
_LEVEL_CURVE = "a562fa56227bbdc9"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _bundle_digest(out_dir) -> str:
    """Over a bundle's file names and bytes, report.json's library
    versions left out."""
    parts = []
    for p in sorted(Path(out_dir).iterdir()):
        data = p.read_bytes()
        if p.name == "report.json":
            payload = json.loads(data)
            del payload["versions"]
            data = json.dumps(payload, sort_keys=True).encode()
        parts.append(p.name.encode() + b"\0" + data + b"\0")
    return _digest(b"".join(parts))


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-cpus")
def cpus(request, monkeypatch):
    monkeypatch.setattr(pathsim, "_cpus", lambda: request.param)
    return request.param


def test_terminal_draws_are_the_same_bytes_at_every_pool_size(cpus):
    draws = sample_terminal_jumpdecomp(SYM, CRITERION_4, 1000)
    assert _digest(draws.tobytes()) == _TERMINAL


@pytest.mark.parametrize("kind", sorted(_BUNDLES))
def test_bundles_are_the_same_bytes_at_every_pool_size(kind, cpus,
                                                       tmp_path):
    spec, expected = _BUNDLES[kind]
    emit_report(run_experiment(spec), tmp_path)
    assert _bundle_digest(tmp_path) == expected


def test_level_curve_is_the_same_bytes_at_every_pool_size(cpus):
    # the level-curve shape: the many-level route of the martingale part
    # runs on the calling thread, whatever the pool size
    params = derive_params(1.3, 3.0, 1.0)
    path = simulate_path_jumpdecomp(
        params, SimConfig(T=1.0, n_steps=4096, eps=1e-3, seed=0))
    curve = tanaka_curve(params, path, default_a_grid(path))
    assert _digest(curve.tobytes()) == _LEVEL_CURVE


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(pathsim, "_pool", None)
    monkeypatch.setattr(pathsim, "_cpus", lambda: 1)
    before = threading.active_count()
    sample_terminal_jumpdecomp(SYM, CRITERION_4, 20)
    assert threading.active_count() == before
    assert pathsim._pool is None
    # the count does see the pool's thread, once there is one
    monkeypatch.setattr(pathsim, "_cpus", lambda: 2)
    sample_terminal_jumpdecomp(SYM, CRITERION_4, 20)
    try:
        assert threading.active_count() == before + 1
    finally:
        pathsim._pool[1].shutdown()


def test_short_calls_run_on_the_calling_thread(monkeypatch):
    # a block holds at least four indices, so calls of fewer than eight
    # stay inline and a few more fill fewer blocks than CPUs
    monkeypatch.setattr(pathsim, "_cpus", lambda: 3)
    run_all, blocks = pathsim._run_all, []

    def counted(tasks, stop=None):
        blocks.append(len(tasks))
        return run_all(tasks, stop)

    monkeypatch.setattr(pathsim, "_run_all", counted)
    me = threading.get_ident()
    for n in range(1, 8):
        assert set(pathsim._blocks(n, lambda i: threading.get_ident())) \
            == {me}
    for n in (8, 11, 12, 40):
        ids = pathsim._blocks(n, lambda i: threading.get_ident())
        assert ids[0] == me != ids[-1]
    assert blocks == [1] * 7 + [2, 2, 3, 3]


def test_the_lowest_failing_path_raises(monkeypatch):
    # paths 7 and 8 fail, at the end of the second of three blocks and at
    # the start of the third; path 8 fails first, the serial loop meets
    # path 7 first
    monkeypatch.setattr(pathsim, "_cpus", lambda: 3)
    cfg = SimConfig(T=1.0, n_steps=16, eps=0.2, seed=4)
    index = {simulate_path_jumpdecomp(SYM, cfg, i).values.tobytes(): i
             for i in range(12)}

    def per_path(path):
        i = index[path.values.tobytes()]
        if i == 7:
            time.sleep(0.05)
            raise RuntimeError(f"path {i}")
        if i == 8:
            raise ZeroDivisionError(f"path {i}")
        return i

    with pytest.raises(RuntimeError, match=r"^path 7$"):
        _path_rows(SYM, cfg, 12, per_path)


@pytest.mark.parametrize("failing", [0, 20], ids=["caller", "pool"])
def test_a_failure_stops_the_blocks_above_it(monkeypatch, failing):
    # three blocks of 20; after the failure every other block makes at
    # most the one call it had started, and the blocks below run on
    monkeypatch.setattr(pathsim, "_cpus", lambda: 3)
    calls, failed = [], threading.Event()

    def per_index(i):
        calls.append((i, failed.is_set()))
        if i == failing:
            failed.set()
            raise ValueError(f"index {i}")
        time.sleep(0.005)
        return i

    with pytest.raises(ValueError, match=f"^index {failing}$"):
        pathsim._blocks(60, per_index)
    assert len([i for i, late in calls if late and i > failing]) <= 2
    assert set(range(failing)) <= {i for i, _ in calls}


def test_an_interrupt_stops_every_block(monkeypatch):
    # the caller's block ends at once and it waits; a pool block then
    # interrupts it, and every block stops at its next index. A shell
    # starts a background job with SIGINT ignored, so the test sets
    # Python's own handler
    monkeypatch.setattr(pathsim, "_cpus", lambda: 3)
    calls, sent = [], threading.Event()

    def per_index(i):
        calls.append((i, sent.is_set()))
        if i < 20:
            return i
        if i == 25:
            sent.set()
            signal.pthread_kill(threading.main_thread().ident,
                                signal.SIGINT)
        time.sleep(0.02)
        return i

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            pathsim._blocks(60, per_index)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert time.perf_counter() - start < 1.0
    assert len([i for i, late in calls if late]) <= 2


def test_out_of_memory_on_a_pool_thread_is_a_config_error(
        monkeypatch, tmp_path, capsys):
    # the command line maps MemoryError to exit 2, whichever thread ran
    # the path that raised it
    monkeypatch.setattr(pathsim, "_cpus", lambda: 2)
    simulate = experiments.simulate_path_jumpdecomp

    def short_of_memory(params, cfg, path_index):
        if path_index == 30:
            assert threading.current_thread() is not threading.main_thread()
            raise MemoryError("no room for path 30")
        return simulate(params, cfg, path_index=path_index)

    monkeypatch.setattr(experiments, "simulate_path_jumpdecomp",
                        short_of_memory)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_BUNDLES["martingale-zero-mean"][0]),
                    encoding="utf-8")
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "config error: out of memory: no room for path 30\n"


def test_many_threads_and_many_failures_still_raise_the_lowest(monkeypatch):
    # more blocks than cores and a short switch interval, so failures of
    # several blocks race to stop the others
    monkeypatch.setattr(pathsim, "_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert pathsim._blocks(200, lambda i: i * i) == \
            [i * i for i in range(200)]
        for lowest in (3, 60, 130, 199):
            failing = set(range(lowest, 200, 7))

            def per_index(i):
                if i in failing:
                    raise IndexError(f"index {i}")
                return i

            with pytest.raises(IndexError, match=f"^index {lowest}$"):
                pathsim._blocks(200, per_index)
    finally:
        sys.setswitchinterval(interval)


def test_nested_calls_run_inline(monkeypatch):
    # a task's own call of _run_all never waits on the pool it occupies
    monkeypatch.setattr(pathsim, "_cpus", lambda: 2)
    inner = [lambda: threading.get_ident()] * 2
    outer = pathsim._run_all([lambda: pathsim._run_all(inner)] * 2)
    assert [len(set(ids)) for ids in outer] == [1, 1]
    assert outer[0][0] == threading.get_ident() != outer[1][0]


def _draw_in_child(conn):
    conn.send(sample_terminal_jumpdecomp(SYM, CRITERION_4, 40).tobytes())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_forked_child_draws_the_same_floats(monkeypatch):
    # the child inherits the parent's pool object but none of its
    # threads; a task sent to that pool would never run
    monkeypatch.setattr(pathsim, "_cpus", lambda: 2)
    expected = sample_terminal_jumpdecomp(SYM, CRITERION_4, 40)
    assert pathsim._pool is not None
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_draw_in_child, args=(sender,))
    child.start()
    try:
        assert receiver.poll(30.0), "the child hung on the parent's pool"
        assert receiver.recv() == expected.tobytes()
    finally:
        child.kill()
        child.join()


# --------------------------------------------------- threads in one place

THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}
HELPER = ("pathsim.py", {"<module>", "_forget_pool", "_as_task", "_submit",
                         "_run_all"})


def _thread_uses(tree: ast.AST, names=None, where: str = "<module>"):
    """(enclosing function, line) of every import of a thread module and
    every use of a name such an import binds."""
    if names is None:
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {a.asname or a.name.split(".")[0]
                          for a in node.names
                          if a.name.split(".")[0] in THREAD_MODULES}
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] in THREAD_MODULES:
                names |= {a.asname or a.name for a in node.names}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _thread_uses(node, names, node.name)
            continue
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] in THREAD_MODULES for a in node.names):
            yield where, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] in THREAD_MODULES:
            yield where, node.lineno
        elif isinstance(node, ast.Name) and node.id in names:
            yield where, node.lineno
        yield from _thread_uses(node, names, where)


def test_only_the_pool_helper_uses_threads():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    uses = {(module.name, where, line)
            for module in modules
            for where, line in _thread_uses(ast.parse(
                module.read_text(encoding="utf-8")))}
    assert [u for u in uses
            if u[0] != HELPER[0] or u[1] not in HELPER[1]] == []
    assert {"_submit", "_run_all"} <= {u[1] for u in uses}


def test_the_thread_scan_sees_each_kind_of_use():
    source = ("import threading\nimport multiprocessing as mp\n"
              "from concurrent.futures import wait\n"
              "def f(x):\n    threading.Lock()\n    mp.Pool()\n"
              "    wait(x)\n    return np.sum(x)\n"
              "def g():\n    import _thread\n")
    assert sorted(_thread_uses(ast.parse(source))) == [
        ("<module>", 1), ("<module>", 2), ("<module>", 3),
        ("f", 5), ("f", 6), ("f", 7), ("g", 10)]
