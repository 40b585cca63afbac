"""Command-line interface tests: subcommands, exit codes, file outputs."""

import json

import numpy as np
import pytest

from stable_tanaka.cli import main

SPEC = {"kind": "sampler-validation",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "options": {"n_samples": 5000}, "seed": 11}


def write_spec(tmp_path, payload, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def test_run_pass_exit_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, SPEC)
    out = tmp_path / "rep"
    assert main(["run", spec, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] cf-match[u=0.5]" in stdout
    assert (out / "report.json").exists()
    assert (out / "char_function.csv").exists()


def test_run_fail_exit_one(tmp_path):
    # alpha = 1.8 convergence genuinely misses the threshold; the CLI must
    # report it and exit 1, not crash
    spec = write_spec(tmp_path, {"kind": "existence-scan",
                                 "options": {"alphas": [1.8]}})
    assert main(["run", spec]) == 1


def test_run_missing_spec_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_unreadable_spec_exit_two(tmp_path, capsys):
    # a directory, then bytes that are not UTF-8
    assert main(["run", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(binary)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_malformed_spec_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_unknown_kind_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "teleport"})
    assert main(["run", spec]) == 2
    assert "unknown experiment kind" in capsys.readouterr().err


def test_run_overrides_and_seed(tmp_path):
    spec = write_spec(tmp_path, SPEC)
    out = tmp_path / "rep"
    code = main(["run", spec, "--out", str(out),
                 "--override", "options.n_samples=800", "--seed", "5"])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["inputs"]["options"]["n_samples"] == 800
    assert payload["inputs"]["seed"] == 5


def test_bad_override_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path, SPEC)
    assert main(["run", spec, "--override", "no-equals-sign"]) == 2
    assert "override" in capsys.readouterr().err
    assert main(["run", spec, "--override", "options.n_samples.x=1"]) == 2


def test_run_json_format(tmp_path):
    spec = write_spec(tmp_path, SPEC)
    out = tmp_path / "rep"
    assert main(["run", spec, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "report.json").read_text())
    # json mode inlines curve rows instead of pointing at CSV files
    assert "rows" in payload["curves"]["char_function"]
    assert not (out / "char_function.csv").exists()


def test_simulate_writes_paths(tmp_path):
    out = tmp_path / "paths"
    code = main(["simulate", "--alpha", "1.5", "--n-steps", "64",
                 "--n-paths", "2", "--out", str(out)])
    assert code == 0
    assert (out / "path_0000.csv").exists()
    assert (out / "path_0001.json").exists()
    sidecar = json.loads((out / "path_0000.json").read_text())
    assert sidecar["scheme"] == "jumpdecomp"


def test_simulate_needs_out_dir(capsys, monkeypatch):
    monkeypatch.delenv("STABLE_TANAKA_OUT", raising=False)
    assert main(["simulate", "--alpha", "1.5"]) == 2
    assert "--out" in capsys.readouterr().err


def test_simulate_rejects_bad_config(tmp_path, capsys):
    code = main(["simulate", "--alpha", "1.5", "--eps", "7.0",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_localtime_curve_and_metadata(tmp_path):
    out = tmp_path / "lt"
    code = main(["localtime", "--alpha", "1.5", "--n-steps", "128",
                 "--levels", "-0.5", "0", "0.5", "--out", str(out)])
    assert code == 0
    lines = (out / "localtime_curve.csv").read_text().splitlines()
    assert lines[0] == "a,occupation,tanaka"
    assert len(lines) == 4
    meta = json.loads((out / "localtime_meta.json").read_text())
    assert meta["estimators"]["occupation"]["mollifier_n"] >= 1
    assert meta["estimators"]["tanaka"]["eps"] == 0.01
    assert meta["levels"] == [-0.5, 0.0, 0.5]


def test_localtime_default_grid(tmp_path):
    out = tmp_path / "lt"
    code = main(["localtime", "--alpha", "1.5", "--n-steps", "64",
                 "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out / "localtime_curve.csv", delimiter=",",
                      skiprows=1)
    assert rows.shape[0] == 201


def test_density_subcommand(tmp_path):
    out = tmp_path / "den"
    code = main(["density", "--alpha", "1.5", "--t", "1.0",
                 "--half-width", "40", "--n-points", "8192",
                 "--out", str(out)])
    assert code == 0
    assert (out / "density_t1.csv").exists()


def test_out_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("STABLE_TANAKA_OUT", str(tmp_path / "envout"))
    code = main(["localtime", "--alpha", "1.5", "--n-steps", "64",
                 "--levels", "0"])
    assert code == 0
    assert (tmp_path / "envout" / "localtime_curve.csv").exists()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["warp-drive"])
    assert exc.value.code == 2
