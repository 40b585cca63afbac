"""Command-line interface tests: subcommands, exit codes, file outputs."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stable_tanaka.cli as st_cli
import stable_tanaka.experiments as st_experiments
from stable_tanaka.cli import main
from stable_tanaka.experiments import _KINDS

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


SYM = {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0}
SMALL_SIM = {"T": 1.0, "n_steps": 16, "eps": 0.1}
# one field wrong per spec; each must exit 2, never end in a traceback
# (exit 1, the same code as a FAIL verdict)
MALFORMED = {
    "params-list": {"kind": "sampler-validation", "params": [1, 2]},
    "params-string": {"kind": "sampler-validation", "params": "x"},
    "options-number": {"kind": "sampler-validation", "params": SYM,
                       "options": 5},
    "gammas-string": {"kind": "moment-tests", "params": SYM,
                      "options": {"n_samples": 50, "gammas": "abc"}},
    "gamma-above-one": {"kind": "moment-tests", "params": SYM,
                        "options": {"n_samples": 50, "gammas": [1.6]}},
    "time-zero": {"kind": "density-report", "params": SYM,
                  "options": {"n_points": 256, "times": [0]}},
    "n-paths-string": {"kind": "martingale-zero-mean", "params": SYM,
                       "sim": SMALL_SIM, "options": {"n_paths": "x"}},
    "levels-number": {"kind": "martingale-zero-mean", "params": SYM,
                      "sim": SMALL_SIM,
                      "options": {"n_paths": 2, "levels": 5}},
    "checkpoint-past-horizon": {"kind": "martingale-zero-mean",
                                "params": SYM, "sim": SMALL_SIM,
                                "options": {"n_paths": 2,
                                            "checkpoints": [2.0]}},
    "checkpoint-inside-first-step": {"kind": "martingale-zero-mean",
                                     "params": SYM, "sim": SMALL_SIM,
                                     "options": {"n_paths": 2,
                                                 "checkpoints": [1e-6]}},
    "u-null": {"kind": "sampler-validation", "params": SYM,
               "options": {"n_samples": 50, "u": None}},
    "alpha-one": {"kind": "existence-scan", "options": {"alphas": [1.0]}},
    "tolerance-string": {"kind": "generator-identity", "params": SYM,
                         "options": {"n_points": 256, "tolerance": "big"}},
    "tolerance-nan": {"kind": "generator-identity", "params": SYM,
                      "options": {"n_points": 256, "tolerance": math.nan}},
    "n-sigma-list": {"kind": "sampler-validation", "params": SYM,
                     "options": {"n_samples": 50, "n_sigma": [1]}},
    "schedule-bad-steps": {"kind": "estimator-agreement", "params": SYM,
                           "sim": SMALL_SIM,
                           "options": {"n_paths": 2,
                                       "schedule": [[0.1, 8], [0.05, "z"]]}},
    "c-plus-string": {"kind": "existence-scan",
                      "options": {"alphas": [1.5], "c_plus": "a"}},
    "out-dir-number": {"kind": "existence-scan",
                       "options": {"alphas": [1.5]}, "out_dir": 5},
    # a positive spacing, but the symbol overflows at its cutoff
    "density-symbol-overflow": {"kind": "density-report", "params": SYM,
                                "options": {"half_width": 1e-300,
                                            "n_points": 256}},
    # a spacing that underflows to zero
    "density-spacing-underflow": {"kind": "density-report", "params": SYM,
                                  "options": {"half_width": 1e-322,
                                              "n_points": 256}},
    # an out_dir that names a file, or a path through one; relative to
    # the working directory, which holds a file named "taken"
    "out-dir-is-file": dict(SPEC, out_dir="taken"),
    "out-dir-under-file": dict(SPEC, out_dir="taken/report"),
    # a jump cutoff whose expected jump count per path cannot be drawn:
    # eps^(-alpha) overflows a float, or the mean is past the Poisson
    # sampler's limit; for estimator-agreement, at one schedule level
    "eps-count-overflows": {"kind": "martingale-zero-mean", "params": SYM,
                            "sim": dict(SMALL_SIM, eps=1e-300),
                            "options": {"n_paths": 2}},
    "eps-count-past-poisson": {"kind": "occupation-formula", "params": SYM,
                               "sim": dict(SMALL_SIM, eps=1e-100),
                               "options": {"n_paths": 2}},
    "schedule-eps-count": {"kind": "estimator-agreement", "params": SYM,
                           "sim": SMALL_SIM,
                           "options": {"n_paths": 2,
                                       "schedule": [[0.1, 8], [1e-100, 16]]}},
    # 1.3e18 expected jumps: the Poisson sampler takes the mean, but the
    # draw could exceed the longest array numpy can allocate
    "eps-count-past-array": {"kind": "martingale-zero-mean", "params": SYM,
                             "sim": dict(SMALL_SIM, eps=1e-12),
                             "options": {"n_paths": 2}},
    # a grid of 2^62 + 1 points, past the longest array numpy can allocate
    "n-steps-past-array": {"kind": "martingale-zero-mean", "params": SYM,
                           "sim": dict(SMALL_SIM, n_steps=2 ** 62),
                           "options": {"n_paths": 2}},
    # t eta(u), or d cutoff^alpha, overflows a float; for alpha <= 1 the
    # scan walks by decades past the last cutoff, to inf here
    "u-symbol-overflow": {"kind": "sampler-validation", "params": SYM,
                          "options": {"n_samples": 50, "u": [1e300]}},
    "cutoff-symbol-overflow": {"kind": "existence-scan",
                               "options": {"cutoffs": [1e2, 1.7e308]}},
    "cutoff-walk-overflow": {"kind": "existence-scan",
                             "options": {"alphas": [0.9],
                                         "cutoffs": [1e2, 1.5e308]}},
    # an intensity so small that the kernel amplitude overflows, or an
    # infinite one: the derived coefficients are not finite
    "c-plus-subnormal": {"kind": "sampler-validation",
                         "params": dict(SYM, c_plus=1e-320, c_minus=0.0),
                         "options": {"n_samples": 50}},
    "c-plus-inf": {"kind": "sampler-validation",
                   "params": dict(SYM, c_plus=math.inf),
                   "options": {"n_samples": 50}},
    # near alpha = 1 the skew factor overflows the existence integral's
    # 2F1 argument, though d cutoff^alpha is finite
    "cutoff-skew-overflow": {"kind": "existence-scan",
                             "options": {"alphas": [1.0001],
                                         "cutoffs": [1e2, 3e304],
                                         "c_plus": 3.0}},
    # scipy's 2F1 gives NaN at alpha = 0.01, so the partial is not finite
    "alpha-hundredth": {"kind": "existence-scan",
                        "options": {"alphas": [0.01]}},
    # distinct values that print as one {:g} label would name two
    # verdicts, statistics entries or curves alike, and one would be lost
    "u-labels-collide": {"kind": "sampler-validation", "params": SYM,
                         "options": {"n_samples": 50,
                                     "u": [1.0000001, 1.0000002]}},
    "gammas-labels-collide": {"kind": "moment-tests", "params": SYM,
                              "options": {"n_samples": 50,
                                          "gammas": [0.3000001, 0.3000002]}},
    "times-labels-collide": {"kind": "moment-tests", "params": SYM,
                             "options": {"n_samples": 50,
                                         "times": [1.0000001, 1.0000002]}},
    "shifts-labels-collide": {"kind": "moment-tests", "params": SYM,
                              "options": {"n_samples": 50,
                                          "shifts": [0.1234567, 0.1234568]}},
    "levels-labels-collide": {"kind": "martingale-zero-mean", "params": SYM,
                              "sim": SMALL_SIM,
                              "options": {"n_paths": 2,
                                          "levels": [0.1234567, 0.1234568]}},
    "checkpoints-labels-collide": {"kind": "martingale-zero-mean",
                                   "params": SYM, "sim": SMALL_SIM,
                                   "options": {"n_paths": 2, "checkpoints":
                                               [0.5000001, 0.5000002]}},
    "alphas-labels-collide": {"kind": "existence-scan",
                              "options": {"alphas": [1.5000001, 1.5000002]}},
    "density-times-labels-collide": {"kind": "density-report", "params": SYM,
                                     "options": {"n_points": 256, "times":
                                                 [1.0000001, 1.0000002]}},
    # doubles hold no 201 distinct default levels around 1e15
    "x0-levels-unresolvable": {"kind": "occupation-formula", "params": SYM,
                               "sim": dict(SMALL_SIM, x0=1e15),
                               "options": {"n_paths": 2}},
    # the path's distance from the level -1e308 overflows
    "level-overflow": {"kind": "martingale-zero-mean", "params": SYM,
                       "sim": dict(SMALL_SIM, x0=1e308),
                       "options": {"n_paths": 2, "levels": [-1e308, 0.0]}},
    # a grid spacing that overflows
    "grid-overflow": {"kind": "generator-identity", "params": SYM,
                      "options": {"half_width": 1e308}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_spec_exit_two(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("kept", encoding="utf-8")
    spec = write_spec(tmp_path, MALFORMED[name])
    assert main(["run", spec]) == 2
    assert "config error:" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept"


# JSON-shaped fuzz: values of every JSON type, non-finite floats, nested
# lists and wrong block shapes, weighted so that a good share of the specs
# pass the checks and run. Budget-like keys (path and sample counts, grid
# sizes, steps, horizon, jump cutoff) take only small valid values or
# invalid ones, so every run stays well under a second.
_NUM = st.one_of(
    st.integers(-3, 3), st.floats(-10.0, 10.0),
    st.sampled_from([0.5, 1.5, 1e-3, 1e3, math.nan, math.inf, -math.inf]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=3), _NUM)
_JSON = st.recursive(
    _SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
_VALUE = st.one_of(_NUM, st.lists(_NUM, max_size=3), _JSON)
_BAD = st.sampled_from([None, True, "x", math.nan, math.inf, -1, 0, 2.5,
                        [1], {"a": 1}])
_PLAUSIBLE = st.one_of(st.floats(0.01, 1.0),
                       st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))
_GOOD = {
    "n_paths": st.integers(2, 4), "n_samples": st.integers(2, 64),
    "n_points": st.sampled_from([256, 512]),
    "schedule": st.lists(st.tuples(st.sampled_from([0.1, 0.2]),
                                   st.integers(1, 16)).map(list),
                         min_size=2, max_size=3),
    "T": st.sampled_from([0.5, 1.0]), "n_steps": st.integers(1, 32),
    "eps": st.sampled_from([0.05, 0.2]), "x0": st.floats(-1.0, 1.0),
    "small_jump_mode": st.sampled_from(["gaussian", "drop"]),
    "c_plus": st.floats(0.0, 3.0), "c_minus": st.floats(0.0, 3.0),
}
# budget keys are always set: their defaults are large
_BUDGET = ("n_paths", "n_samples", "n_points", "schedule", "T", "n_steps",
           "eps")


EXPERIMENT_KINDS = tuple(_KINDS)
OPTION_KEYS = {name: set(kind.options) for name, kind in _KINDS.items()}


@st.composite
def _specs(draw):
    def mostly(good, bad):
        return draw(good if draw(st.integers(0, 9)) < 9 else bad)

    def block(keys):
        out = {k: mostly(_GOOD[k], _BAD) for k in keys if k in _BUDGET}
        for k in keys:
            if k not in _BUDGET and draw(st.integers(0, 2)) == 2:
                out[k] = mostly(_GOOD.get(k, _PLAUSIBLE), _VALUE)
        if draw(st.integers(0, 9)) == 9:
            out[draw(st.text(max_size=3))] = draw(_VALUE)
        return out

    kind = mostly(st.sampled_from(EXPERIMENT_KINDS), _SCALARS)
    keys = sorted(OPTION_KEYS.get(kind, ())) if isinstance(kind, str) else []
    sim = block(["T", "n_steps", "eps", "x0", "small_jump_mode"])
    params = {"alpha": mostly(st.sampled_from([1.2, 1.5, 1.8]), _VALUE)}
    params.update(block(["c_plus", "c_minus"]))
    spec = {"kind": kind, "params": mostly(st.just(params), _JSON),
            "sim": mostly(st.just(sim), _JSON),
            # never {}: the defaults are the full budgets
            "options": mostly(st.just(block(keys)), st.one_of(
                _BAD, st.lists(_SCALARS, max_size=3)))}
    for key, good in (("seed", st.integers(0, 3)),
                      ("out_dir", st.just("out"))):
        if draw(st.booleans()):
            spec[key] = mostly(good, _BAD)
    return spec


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(spec=_specs())
def test_run_never_raises_on_json_specs(tmp_path, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STABLE_TANAKA_OUT", raising=False)
    path = write_spec(tmp_path, spec)
    assert main(["run", path]) in (0, 1, 2)


def test_run_overrides_and_seed(tmp_path):
    spec = write_spec(tmp_path, SPEC)
    out = tmp_path / "rep"
    code = main(["run", spec, "--out", str(out),
                 "--override", "options.n_samples=800", "--seed", "5"])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["inputs"]["options"]["n_samples"] == 800
    assert payload["inputs"]["seed"] == 5


def test_run_builds_the_spec_once(tmp_path, monkeypatch):
    # one run parses each block once, as run_experiment on a dict does, and
    # the report's inputs keep out_dir null although the spec names one
    parses = []

    def counting(where, *args, **kwargs):
        parses.append(where.split()[0])
        return typed(where, *args, **kwargs)

    typed = st_experiments._typed
    monkeypatch.setattr(st_experiments, "_typed", counting)
    out = tmp_path / "rep"
    spec = write_spec(tmp_path, {
        "kind": "estimator-agreement",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 16, "eps": 0.1},
        "options": {"n_paths": 2, "schedule": [[0.2, 8], [0.1, 16]]},
        "out_dir": str(out)})
    assert main(["run", spec]) in (0, 1)
    assert sorted(parses) == ["options", "params", "sim"]
    payload = json.loads((out / "report.json").read_text())
    assert payload["inputs"]["out_dir"] is None


def test_parser_reuse_keeps_calls_apart(tmp_path):
    # main parses with one parser per process; an override of one call
    # must not reach the next, and two equal localtime calls write the
    # same bytes
    spec = write_spec(tmp_path, {
        "kind": "estimator-agreement",
        "params": {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0},
        "sim": {"T": 1.0, "n_steps": 16, "eps": 0.1},
        "options": {"n_paths": 2, "schedule": [[0.2, 8], [0.1, 16]]}})
    outs = [tmp_path / "first", tmp_path / "second"]
    assert main(["run", spec, "--out", str(outs[0]),
                 "--override", "options.n_paths=3"]) in (0, 1)
    assert main(["run", spec, "--out", str(outs[1])]) in (0, 1)
    seen = [json.loads((out / "report.json").read_text())["inputs"]
            for out in outs]
    assert [inputs["options"]["n_paths"] for inputs in seen] == [3, 2]
    assert st_cli._parser() is st_cli._parser()
    files = []
    for out in (tmp_path / "lt1", tmp_path / "lt2"):
        assert main(["localtime", "--alpha", "1.3", "--c-plus", "3",
                     "--n-steps", "256", "--seed", "4",
                     "--out", str(out)]) == 0
        files.append([(out / name).read_bytes() for name in
                      ("localtime_curve.csv", "localtime_meta.json")])
    assert files[0] == files[1]


def test_bad_override_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path, SPEC)
    assert main(["run", spec, "--override", "no-equals-sign"]) == 2
    assert "override" in capsys.readouterr().err
    assert main(["run", spec, "--override", "options.n_samples.x=1"]) == 2


def test_simulate_writes_paths(tmp_path):
    out = tmp_path / "paths"
    code = main(["simulate", "--alpha", "1.5", "--n-steps", "64",
                 "--n-paths", "2", "--out", str(out)])
    assert code == 0
    assert (out / "path_0000.csv").exists()
    assert (out / "path_0001.json").exists()
    sidecar = json.loads((out / "path_0000.json").read_text())
    assert sidecar["scheme"] == "jumpdecomp"


def test_simulate_marginal_draws_no_jumps(tmp_path):
    # the marginal scheme records no jumps, so any cutoff in (0, 1) will do
    out = tmp_path / "paths"
    assert main(["simulate", "--alpha", "1.5", "--scheme", "marginal",
                 "--eps", "1e-300", "--n-steps", "8", "--out", str(out)]) == 0
    sidecar = json.loads((out / "path_0000.json").read_text())
    assert sidecar["jumps"] == []


def test_simulate_needs_out_dir(capsys, monkeypatch):
    monkeypatch.delenv("STABLE_TANAKA_OUT", raising=False)
    assert main(["simulate", "--alpha", "1.5"]) == 2
    assert "--out" in capsys.readouterr().err


def test_simulate_rejects_bad_config(tmp_path, capsys):
    code = main(["simulate", "--alpha", "1.5", "--eps", "7.0",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


BAD_COMMANDS = {
    "localtime-alpha": ["localtime", "--alpha", "2.5"],
    "localtime-c-plus": ["localtime", "--alpha", "1.5", "--c-plus", "-1"],
    "simulate-alpha": ["simulate", "--alpha", "2.5"],
    "simulate-c-plus": ["simulate", "--alpha", "1.5", "--c-plus", "-1"],
    # the kernel amplitude overflows, or the intensity is infinite
    "localtime-c-plus-subnormal": ["localtime", "--alpha", "1.5",
                                   "--c-plus", "1e-320", "--c-minus", "0",
                                   "--levels", "0", "0.5"],
    "localtime-c-plus-inf": ["localtime", "--alpha", "1.5",
                             "--c-plus", "inf"],
    "simulate-c-plus-subnormal": ["simulate", "--alpha", "1.5",
                                  "--c-plus", "1e-320", "--c-minus", "0"],
    "simulate-c-plus-inf": ["simulate", "--alpha", "1.5", "--c-plus", "inf"],
    "localtime-path-index": ["localtime", "--alpha", "1.5",
                             "--path-index", "-1"],
    "localtime-levels-nan": ["localtime", "--alpha", "1.5",
                             "--levels", "0", "nan"],
    "localtime-x0-nan": ["localtime", "--alpha", "1.5", "--x0", "nan"],
    "localtime-x0-inf": ["localtime", "--alpha", "1.5", "--x0", "inf"],
    "simulate-x0-nan": ["simulate", "--alpha", "1.5", "--x0", "nan"],
    "simulate-x0-inf": ["simulate", "--alpha", "1.5", "--x0", "inf"],
    "density-symbol-overflow": ["density", "--alpha", "1.5",
                                "--half-width", "1e-300",
                                "--n-points", "256"],
    # --out names an existing file, not a directory
    "run-out-file": ["run"],
    "localtime-out-file": ["localtime", "--alpha", "1.5"],
    "simulate-out-file": ["simulate", "--alpha", "1.5"],
    "density-out-file": ["density", "--alpha", "1.5", "--t", "1.0",
                         "--half-width", "40", "--n-points", "8192"],
    # the expected jump count per path cannot be drawn
    "localtime-eps-overflow": ["localtime", "--alpha", "1.5",
                               "--eps", "1e-300"],
    "localtime-eps-poisson": ["localtime", "--alpha", "1.5",
                              "--eps", "1e-100"],
    "simulate-eps-overflow": ["simulate", "--alpha", "1.5",
                              "--eps", "1e-300"],
    "simulate-eps-poisson": ["simulate", "--alpha", "1.5", "--eps", "1e-100"],
    # the count can be drawn, but not held in one array
    "localtime-eps-array": ["localtime", "--alpha", "1.5", "--eps", "1e-12"],
    "simulate-eps-array": ["simulate", "--alpha", "1.5", "--eps", "1e-12"],
    # a grid past the longest array numpy can allocate, with or without
    # jumps
    "localtime-n-steps-array": ["localtime", "--alpha", "1.5",
                                "--n-steps", str(2 ** 62)],
    "simulate-marginal-n-steps-array": ["simulate", "--alpha", "1.5",
                                        "--scheme", "marginal",
                                        "--n-steps", str(2 ** 62)],
    # ~1e18 jumps pass the array-size limit, but their arrays exceed the
    # address space, so the first one fails to allocate at once
    "localtime-jumps-out-of-memory": ["localtime", "--alpha", "1.999999999",
                                      "--eps", "1e-9", "--n-steps", "8"],
    # doubles hold no 201 distinct default levels around 1e15
    "localtime-x0-levels-unresolvable": ["localtime", "--alpha", "1.5",
                                         "--x0", "1e15"],
    # the path's distance from the level overflows
    "localtime-level-overflow": ["localtime", "--alpha", "1.5",
                                 "--x0", "1e308", "--levels=-1e308"],
    # a horizon whose 64-step time grid holds 21 distinct nodes of 65
    "localtime-grid-collapse": ["localtime", "--alpha", "1.5",
                                "--T", "1e-322"],
    # a grid spacing that overflows
    "density-grid-overflow": ["density", "--alpha", "1.5",
                              "--half-width", "1e308", "--n-points", "256"],
}


@pytest.mark.parametrize("name", sorted(BAD_COMMANDS))
def test_bad_command_line_exit_two(tmp_path, capsys, name):
    out = tmp_path / "out"
    if name.endswith("-out-file"):
        out.write_text("kept", encoding="utf-8")
    argv = BAD_COMMANDS[name]
    if argv[0] == "run":
        argv = argv + [write_spec(tmp_path, SPEC)]
    steps = [] if argv[0] in ("run", "density") or "--n-steps" in argv \
        else ["--n-steps", "64"]
    code = main(argv + steps + ["--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    # rejected before any compute or write
    if name.endswith("-out-file"):
        assert out.read_text(encoding="utf-8") == "kept"
    else:
        assert not out.exists()


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
