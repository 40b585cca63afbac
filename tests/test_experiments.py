"""Experiment runner tests.

Config validation fails before compute, tolerance violations become FAIL
verdicts rather than exceptions, reports serialize byte-identically, and
each of the eight kinds runs green at reduced scale on frozen seeds
(except existence-scan, whose alpha=1.8 convergence criterion fails
honestly -- the partial integrals genuinely move by more than the
threshold between the prescribed cutoffs).
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stable_tanaka
from stable_tanaka.experiments import (
    _KINDS,
    ConfigError,
    ExperimentReport,
    ExperimentSpec,
    Verdict,
    emit_report,
    run_experiment,
    write_json,
)
from stable_tanaka.spectral import existence_limit

SYM_PARAMS = {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0}


# ------------------------------------------------------------ spec validation

def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentSpec(kind="fourier-party")


def test_missing_blocks_rejected():
    with pytest.raises(ConfigError, match="params block"):
        ExperimentSpec(kind="generator-identity")
    with pytest.raises(ConfigError, match="sim block"):
        ExperimentSpec(kind="martingale-zero-mean", params=SYM_PARAMS)


def test_unknown_options_rejected():
    with pytest.raises(ConfigError, match="n_pathz"):
        ExperimentSpec(kind="martingale-zero-mean", params=SYM_PARAMS,
                       sim={"T": 1.0, "n_steps": 64, "eps": 1e-2},
                       options={"n_pathz": 10})


def test_unknown_spec_fields_rejected():
    with pytest.raises(ConfigError, match="unknown spec fields"):
        ExperimentSpec.from_dict({"kind": "existence-scan", "speed": 11})
    with pytest.raises(ConfigError, match="needs a kind"):
        ExperimentSpec.from_dict({})
    with pytest.raises(ConfigError, match="spec must be a JSON object"):
        ExperimentSpec.from_dict([1])


def test_bad_out_dir_rejected():
    with pytest.raises(ConfigError, match="out_dir must be a string or null"):
        ExperimentSpec(kind="existence-scan", out_dir=3)


def test_bad_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentSpec(kind="existence-scan", seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentSpec(kind="existence-scan", seed=True)


def test_spec_seed_follows_the_stream_key_rule(tmp_path):
    # the seed keys path_rng, so a spec takes what path_rng takes: a numpy
    # integer writes the same bundle, and 2**64 is refused by the same rule
    with pytest.raises(ConfigError, match=r"2\*\*64"):
        ExperimentSpec(kind="existence-scan", seed=2**64)
    spec = {"kind": "sampler-validation", "params": SYM_PARAMS,
            "options": {"n_samples": 500}}
    a = emit_report(run_experiment(dict(spec, seed=5)), tmp_path / "a")
    b = emit_report(run_experiment(dict(spec, seed=np.int64(5))),
                    tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_bad_params_block_rejected():
    with pytest.raises(ConfigError, match="params"):
        ExperimentSpec(kind="sampler-validation",
                       params={"alpha": 2.5, "c_plus": 1.0})
    with pytest.raises(ConfigError, match="c_center"):
        ExperimentSpec(kind="sampler-validation",
                       params={"alpha": 1.5, "c_center": 1.0})


def test_schedule_jump_count_checked_at_construction():
    # an undrawable schedule level is refused before run_experiment
    with pytest.raises(ConfigError, match="jump"):
        ExperimentSpec(kind="estimator-agreement", params=SYM_PARAMS,
                       sim={"T": 1.0, "n_steps": 16, "eps": 0.1},
                       options={"n_paths": 2,
                                "schedule": [[1e-100, 16], [0.05, 32]]})


def test_label_collisions_refused_exact_repeats_kept():
    # distinct values printing as one {:g} label are refused, also for
    # checkpoints once scaled by T; exact repeats construct as before
    sim = {"T": 2.0, "n_steps": 64, "eps": 1e-2}
    with pytest.raises(ConfigError, match="share the label 1"):
        ExperimentSpec(kind="martingale-zero-mean", params=SYM_PARAMS,
                       sim=sim, options={"checkpoints": [0.5, 0.50000001]})
    ExperimentSpec(kind="martingale-zero-mean", params=SYM_PARAMS, sim=sim,
                   options={"levels": [0.5, 0.5],
                            "checkpoints": [0.5, 0.5, 1.0]})
    ExperimentSpec(kind="sampler-validation", params=SYM_PARAMS,
                   options={"u": [1.0, 1.0]})


def test_all_kinds_registered():
    option_keys = {name: set(kind.options) for name, kind in _KINDS.items()}
    assert len(_KINDS) == 8
    assert set(option_keys) == set(_KINDS)
    assert sum(len(keys) for keys in option_keys.values()) == 38


# ----------------------------------------------------------------- verdicts

def test_verdict_constructors_and_validation():
    v = Verdict.at_most("x", 0.5, 1.0)
    assert v.passed and v.margin == 0.5
    w = Verdict.at_least("y", 0.05, 0.10)
    assert not w.passed and w.margin == pytest.approx(-0.05)
    with pytest.raises(ValueError, match="criterion"):
        Verdict("", 0.0, 1.0, 1.0, True)
    with pytest.raises(ValueError, match="finite"):
        Verdict("z", math.nan, 1.0, 1.0, True)


# ------------------------------------------------------------- fast kinds

def test_generator_identity_runs_green():
    rep = run_experiment({"kind": "generator-identity",
                          "params": SYM_PARAMS})
    assert rep.all_passed
    assert rep.statistics["sup_relative_error"] < 1e-2
    assert rep.curves["identity"]["columns"] == ["x", "applied", "target"]
    assert rep.wall_time_s > 0.0


def test_sampler_validation_matches_cf():
    rep = run_experiment({"kind": "sampler-validation",
                          "params": SYM_PARAMS,
                          "options": {"n_samples": 20000}, "seed": 11})
    assert rep.all_passed
    assert {v.criterion for v in rep.verdicts} == {
        "cf-match[u=0.5]", "cf-match[u=1]", "cf-match[u=2]", "cf-match[u=4]"}


def test_sampler_validation_degenerate_trivial_pass():
    # u = 0 with a tiny time step: the empirical CF is exactly 1 with zero
    # spread, which must count as a pass, not a 0/0 crash
    rep = run_experiment({"kind": "sampler-validation",
                          "params": SYM_PARAMS,
                          "options": {"n_samples": 4, "u": [0.0],
                                      "t": 1e-12}, "seed": 1})
    assert rep.all_passed
    assert rep.statistics["u=0"]["empirical"] == [1.0, 0.0]
    assert rep.statistics["u=0"]["max_z"] == 0.0


def test_moment_tests_respect_bound():
    rep = run_experiment({"kind": "moment-tests", "params": SYM_PARAMS,
                          "options": {"n_samples": 20000}, "seed": 3})
    assert rep.all_passed
    assert len(rep.verdicts) == 12  # 3 gammas x 2 times x 2 shifts


def test_existence_scan_divergent_side_passes():
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [0.9]}})
    assert rep.all_passed
    growth = rep.statistics["alpha=0.9"]["per_decade_growth"]
    assert min(growth) > 0.10


def test_existence_scan_reports_failure_without_crashing():
    # the alpha = 1.8 partial integrals move by just over the 1e-2
    # threshold between the prescribed cutoffs; that is a FAIL verdict
    # with a numeric margin, not an exception
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [1.8]}})
    assert not rep.all_passed
    (v,) = rep.verdicts
    assert v.criterion == "existence-converges[alpha=1.8]"
    assert v.margin < 0.0
    assert v.measured == pytest.approx(0.0101, rel=0.05)


def test_existence_scan_reports_limit_and_remainders():
    # a diagnostic beside the verdicts: the closed-form limit and, at each
    # cutoff, what the partial still lacks of it; the verdicts stay on the
    # successive differences
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [1.2, 1.5, 0.9],
                                      "c_plus": 3.0, "c_minus": 1.0}})
    for alpha, v in zip((1.2, 1.5), rep.verdicts):
        stats = rep.statistics[f"alpha={alpha:g}"]
        assert stats["limit"] == existence_limit(alpha, 3.0, 1.0)
        assert stats["remainders"] == [stats["limit"] - p
                                       for p in stats["partials"]]
        assert all(r > 0.0 for r in stats["remainders"])
        assert v.measured == max(stats["diffs"])
    assert set(rep.statistics["alpha=0.9"]) == {"partials",
                                                 "per_decade_growth"}


def test_density_report_green_and_skew_aware():
    rep = run_experiment({"kind": "density-report", "params": SYM_PARAMS,
                          "options": {"times": [0.5]}})
    assert rep.all_passed
    names = {v.criterion for v in rep.verdicts}
    assert names == {"density-mass[t=0.5]", "density-symmetry[t=0.5]",
                     "density-selfsim[t=0.5]"}
    skew = run_experiment({"kind": "density-report",
                           "params": {"alpha": 1.5, "c_plus": 3.0,
                                      "c_minus": 1.0},
                           "options": {"times": [1.0]}})
    assert skew.all_passed
    assert not any("symmetry" in v.criterion for v in skew.verdicts)


# -------------------------------------------------------- simulation kinds

def test_martingale_zero_mean_experiment():
    rep = run_experiment({
        "kind": "martingale-zero-mean", "params": SYM_PARAMS,
        "sim": {"T": 1.0, "n_steps": 512, "eps": 1e-2}, "seed": 314,
        "options": {"n_paths": 200}})
    assert rep.all_passed
    assert len(rep.verdicts) == 6  # 2 levels x 3 checkpoints
    for v in rep.verdicts:
        assert v.threshold == 4.0


def test_occupation_formula_experiment():
    rep = run_experiment({
        "kind": "occupation-formula", "params": SYM_PARAMS,
        "sim": {"T": 1.0, "n_steps": 512, "eps": 1e-2}, "seed": 42,
        "options": {"n_paths": 30}})
    assert rep.all_passed
    assert rep.statistics["hat_residual_median"] < 0.05
    assert rep.curves["residuals"]["rows"].shape == (30, 3)


def test_occupation_formula_raises_no_warnings():
    # nothing on this path warns, so the runner silences nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_experiment({
            "kind": "occupation-formula", "params": SYM_PARAMS,
            "sim": {"T": 1.0, "n_steps": 1024, "eps": 4e-3}, "seed": 3,
            "options": {"n_paths": 10}})
    assert rep.all_passed


@pytest.mark.filterwarnings("error")
def test_estimator_agreement_far_level_raises_no_warnings():
    # a level far past every path: the mollifier's argument is ~1e308 and
    # must not overflow; both means read ~0 and the verdicts stand
    rep = run_experiment({
        "kind": "estimator-agreement", "params": SYM_PARAMS,
        "sim": {"T": 1.0, "n_steps": 16, "eps": 0.1}, "seed": 0,
        "options": {"n_paths": 2, "level": 1e308,
                    "schedule": [[0.1, 8], [0.05, 16]]}})
    assert rep.statistics["occupation_means"] == [0.0, 0.0]
    verdicts = {v.criterion: v for v in rep.verdicts}
    assert verdicts["agreement-mse-monotone"].passed
    assert not verdicts["agreement-finest-means"].passed
    assert verdicts["agreement-finest-means"].measured == 1e30


def test_estimator_agreement_experiment():
    # reduced-scale schedule; the means tolerance is opened up because the
    # 10% figure belongs to the fine acceptance schedule, not this one
    rep = run_experiment({
        "kind": "estimator-agreement", "params": SYM_PARAMS,
        "sim": {"T": 1.0, "n_steps": 128, "eps": 4e-2}, "seed": 1234,
        "options": {"n_paths": 150, "means_tolerance": 0.25,
                    "schedule": [[4e-2, 128], [2e-2, 256], [1e-2, 512]]}})
    assert rep.all_passed
    mse = rep.statistics["mse"]
    assert mse[0] > mse[1] > mse[2]
    assert len(rep.statistics["mse_ratios"]) == 2


# ------------------------------------------------------------- serialization

def test_reports_are_byte_identical(tmp_path):
    spec = ExperimentSpec.from_dict({
        "kind": "sampler-validation", "params": SYM_PARAMS,
        "options": {"n_samples": 5000}, "seed": 11})
    r1, r2 = run_experiment(spec), run_experiment(spec)
    paths1 = emit_report(r1, tmp_path / "a")
    paths2 = emit_report(r2, tmp_path / "b")
    assert [p.name for p in paths1] == ["report.json", "char_function.csv"]
    assert [p.name for p in paths2] == [p.name for p in paths1]
    assert [p.read_bytes() for p in paths1] == [p.read_bytes() for p in paths2]


_PINNED_BUNDLES = {
    "martingale-zero-mean": ({
        "kind": "martingale-zero-mean", "params": SYM_PARAMS,
        "sim": {"T": 1.0, "n_steps": 128, "eps": 5e-2}, "seed": 17,
        "options": {"n_paths": 12, "levels": [0.5, -0.25, 0.5, 0.0],
                    "checkpoints": [1.0, 0.25, 0.5, 0.25]}},
        "7457cbe3571df6787a3043c6f90bd86eca4228c91138d015015a50e387c2501c"),
    "estimator-agreement": ({
        "kind": "estimator-agreement",
        "params": {"alpha": 1.3, "c_plus": 3.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 64, "eps": 0.1}, "seed": 18,
        "options": {"n_paths": 10, "level": 0.1,
                    "schedule": [[0.1, 64], [0.05, 128]]}},
        "7435a97f123d720c5f11cac099be748e34292cfecc58ed72928ac1b2f1f2814f"),
    "occupation-formula": ({
        "kind": "occupation-formula", "params": SYM_PARAMS,
        "sim": {"T": 1.0, "n_steps": 256, "eps": 2e-2}, "seed": 19,
        "options": {"n_paths": 6}},
        "204849107b21fa0cb62ba51d35fce09fe2830ea0a077d6d1b22034094c05359b"),
}


def _bundle_digest(out_dir) -> str:
    """sha256 over a bundle's file names and bytes, with report.json's
    library versions left out."""
    digest = hashlib.sha256()
    for p in sorted(Path(out_dir).iterdir()):
        data = p.read_bytes()
        if p.name == "report.json":
            payload = json.loads(data)
            del payload["versions"]
            data = json.dumps(payload, sort_keys=True, indent=2).encode()
        digest.update(p.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(_PINNED_BUNDLES))
def test_path_bundles_pinned(kind, tmp_path):
    # the bundles of the three kinds that draw grid paths, bit for bit; the
    # martingale spec repeats and unsorts its levels and checkpoints
    spec, expected = _PINNED_BUNDLES[kind]
    emit_report(run_experiment(spec), tmp_path)
    assert _bundle_digest(tmp_path) == expected


_BLAS_PROBE = """
import sys
from stable_tanaka.experiments import emit_report, run_experiment
from stable_tanaka.params import derive_params
from stable_tanaka.pathsim import SimConfig, sample_terminal_jumpdecomp

rep = run_experiment({
    "kind": "occupation-formula",
    "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
    "sim": {"T": 1.0, "n_steps": 4096, "eps": 1e-3}, "seed": 5,
    "options": {"n_paths": 5}})
paths = emit_report(rep, sys.argv[1])
rep = run_experiment({
    "kind": "martingale-zero-mean",
    "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
    "sim": {"T": 1.0, "n_steps": 4096, "eps": 1e-3}, "seed": 5,
    "options": {"n_paths": 3}})
paths += emit_report(rep, sys.argv[1] + "-martingale")
draws = sample_terminal_jumpdecomp(
    derive_params(1.7, 1.0, 1.0),
    SimConfig(T=1.0, n_steps=2, eps=1e-3, seed=9), 5)
print("".join(p.read_text(encoding="utf-8") for p in paths)
      + draws.tobytes().hex())
"""


def test_results_independent_of_blas_threads(tmp_path):
    # the occupation-formula residuals, the martingale sums at three
    # checkpoints and the terminal draws reduce vectors of ~1e4-1e5
    # entries, long enough for a threaded BLAS dot to split them
    src = str(Path(stable_tanaka.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(tmp_path / threads)],
            env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_csv_bundle_layout(tmp_path):
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [0.9]}})
    paths = emit_report(rep, tmp_path)
    names = {p.name for p in paths}
    assert names == {"report.json", "partials.csv"}
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["curves"]["partials"]["file"] == "partials.csv"
    assert payload["curves"]["partials"]["n_rows"] > 0
    lines = (tmp_path / "partials.csv").read_text().splitlines()
    assert lines[0] == "alpha,cutoff,partial"
    assert len(lines) == payload["curves"]["partials"]["n_rows"] + 1


def test_wall_time_not_serialized(tmp_path):
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [0.9]}})
    assert rep.wall_time_s > 0.0
    p = emit_report(rep, tmp_path)[0]
    payload = json.loads(p.read_text())
    assert "wall_time_s" not in json.dumps(payload)
    assert payload["versions"]["stable_tanaka"]


def test_nan_refused_and_nothing_written(tmp_path):
    rep = ExperimentReport(
        kind="existence-scan", inputs={}, statistics={"bad": math.nan},
        verdicts=[Verdict.at_most("x", 0.0, 1.0)])
    out = tmp_path / "refused"
    with pytest.raises(ValueError, match="non-finite"):
        emit_report(rep, out)
    assert not list(out.iterdir())
    rep2 = ExperimentReport(
        kind="existence-scan", inputs={}, statistics={},
        verdicts=[Verdict.at_most("x", 0.0, 1.0)],
        curves={"c": {"columns": ["a"], "rows": np.array([[np.inf]])}})
    with pytest.raises(ValueError, match="non-finite"):
        emit_report(rep2, out)
    assert not list(out.iterdir())


def test_report_writers_refuse_what_they_cannot_write(tmp_path):
    # an output directory under a regular file cannot be made, and json's
    # hook refuses an array: reports hold lists
    rep = run_experiment({"kind": "existence-scan",
                          "options": {"alphas": [0.9]}})
    (tmp_path / "taken").write_text("kept", encoding="utf-8")
    with pytest.raises(OSError, match="cannot create output directory"):
        emit_report(rep, tmp_path / "taken" / "report")
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        write_json(tmp_path / "array.json", {"rows": np.zeros(2)})
    assert not (tmp_path / "array.json").exists()


def test_run_experiment_writes_bundle_when_out_dir_set(tmp_path):
    out = tmp_path / "auto"
    run_experiment({"kind": "existence-scan",
                    "options": {"alphas": [0.9]}, "out_dir": str(out)})
    assert (out / "report.json").exists()
    assert (out / "partials.csv").exists()


def test_empty_out_dir_writes_nothing(tmp_path, monkeypatch):
    # an empty out_dir is unset, not the working directory
    monkeypatch.chdir(tmp_path)
    run_experiment({"kind": "existence-scan",
                    "options": {"alphas": [0.9]}, "out_dir": ""})
    assert not list(tmp_path.iterdir())


# an out_dir under a regular file, one with a NUL byte, and a name past
# the file system's limit under a missing or an existing directory
BAD_OUT_DIRS = {"under-file": "taken/report", "nul": "a\0b",
                "long-name": "missing/" + "x" * 300,
                "long-name-in-dir": "present/" + "x" * 300}


@pytest.mark.parametrize("name", sorted(BAD_OUT_DIRS))
def test_bad_out_dir_refused_before_the_kind_runs(tmp_path, monkeypatch,
                                                  name):
    def refuse(*args):
        raise AssertionError("the kind ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(_KINDS, "existence-scan",
                        replace(_KINDS["existence-scan"], run=refuse))
    (tmp_path / "taken").write_text("kept", encoding="utf-8")
    (tmp_path / "present").mkdir()
    with pytest.raises(ConfigError, match="output directory"):
        run_experiment({"kind": "existence-scan",
                        "out_dir": BAD_OUT_DIRS[name]})
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["present",
                                                           "taken"]


def test_repeated_labels_collapse_to_one_result(tmp_path):
    # an exact repeat in a list that names results is dropped, the first
    # kept, so each verdict and statistics entry has a name of its own
    specs = {
        "moment-tests": ({"params": SYM_PARAMS, "options": {
            "n_samples": 50, "gammas": [0.5, 0.5], "shifts": [0.0, 0.0],
            "times": [1.0]}}, 1),
        "density-report": ({"params": SYM_PARAMS, "options": {
            "n_points": 8192, "half_width": 40.0, "times": [1.0, 1.0]}}, 3),
        "sampler-validation": ({"params": SYM_PARAMS, "options": {
            "n_samples": 50, "u": [1.0, 1.0]}}, 1),
        "existence-scan": ({"options": {"alphas": [1.5, 1.5]}}, 1),
    }
    for kind, (spec, n_verdicts) in specs.items():
        rep = run_experiment(dict(spec, kind=kind))
        names = [v.criterion for v in rep.verdicts]
        assert len(names) == len(set(names)) == n_verdicts, kind
        # the inputs keep the options as given
        assert rep.inputs["options"] == spec["options"]
