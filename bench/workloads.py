"""The benchmark's three workloads: job inputs, jobs and correctness checks.

Every workload is a closed loop of equal jobs driven by one client through
the package's public entry points only (``run_experiment``,
``stable_tanaka.cli.main`` and the public samplers). Entry points are looked
up on their modules at call time, so the tracer in ``tracer.py`` can wrap
them where callers find them.

Job inputs are a pure function of ``(workload seed, job index)``. Each job
is checked twice: against the criterion-derived bars at any seed, and, at
``DEFAULT_SEED``, against reference statistics recorded in
``reference.json`` by ``record_reference.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats as sps

import stable_tanaka.cli as st_cli
import stable_tanaka.experiments as st_experiments
import stable_tanaka.pathsim as st_pathsim
from stable_tanaka.params import derive_params

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Any-seed gates reuse each criterion's statistic. A benchmark comparison
# evaluates them on a few hundred seeds, so the random-noise bars sit at a
# false-alarm rate near 1e-6 per check (5 sigma, KS p > 1e-6) instead of
# the criteria's single-seed levels (4 sigma, p > 0.001); a defect moves
# these statistics far past either bar. Deterministic bars (generator
# identity, densities, occupation residual) are the criteria's own.
Z_BAR = 5.0
KS_P_MIN = 1e-6
# pooled mean-zero tests need enough paths for the normal approximation
MIN_POOLED_PATHS = 30


def job_seed(workload: str, seed: int, index: int) -> int:
    """64-bit job seed derived from (workload, workload seed, job index)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def digest_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class JobOutcome:
    """What one job produced: work done, payload digest, stats, problems."""

    paths: int
    digest: str
    stats: dict
    problems: list = field(default_factory=list)


def close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


class Workload:
    """Base: subclasses define inputs, the job, and its checks."""

    name = ""
    # sizes["full"] is what the benchmark measures; "smoke" is for tests
    sizes: dict = {}

    def __init__(self, seed: int, scratch: Path, size: str = "full"):
        self.seed = seed
        self.scratch = Path(scratch) / self.name
        self.size = self.sizes[size]
        if self.scratch.exists():
            shutil.rmtree(self.scratch)
        self.scratch.mkdir(parents=True)

    def job_inputs(self, index: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_job(self, index: int):
        """The timed part: the job's calls into the package."""
        raise NotImplementedError

    def step(self) -> None:
        """Called between the steps of a multi-step job; the worker sets it
        to a calibration burst, which it keeps out of the job's time."""

    def inspect(self, index: int, raw) -> JobOutcome:
        """The untimed part: read outputs back and check each of them."""
        raise NotImplementedError

    def pooled_problems(self, outcomes: list) -> list:
        """Criterion-derived checks across the jobs of a run that passed."""
        return []

    def tolerance(self, key: str, expected: dict) -> tuple:
        """(rtol, atol) for comparing ``key`` with its reference value."""
        raise NotImplementedError

    def reference_problems(self, index: int, stats: dict,
                           reference: dict | None) -> list:
        """Compare a job's stats with the recorded default-seed values."""
        if reference is None or self.seed != DEFAULT_SEED:
            return []
        rows = reference.get(self.name)
        if rows is None or index >= len(rows["jobs"]):
            return []
        expected = dict(zip(rows["keys"], rows["jobs"][index]))
        problems = []
        if set(expected) != set(stats):
            return [f"job {index}: stat keys differ from the reference"]
        for key, ref in expected.items():
            value = stats[key]
            if isinstance(ref, bool) or isinstance(value, bool):
                if self.flag_must_match(key, expected) \
                        and bool(value) != bool(ref):
                    problems.append(f"job {index}: {key} is {value}, "
                                    f"reference {ref}")
                continue
            rtol, atol = self.tolerance(key, expected)
            if not close(value, ref, rtol, atol):
                problems.append(f"job {index}: {key} = {value!r}, "
                                f"reference {ref!r}")
        return problems

    def flag_must_match(self, key: str, expected: dict) -> bool:
        """Whether a pass/fail flag must equal its reference exactly."""
        return True


# ------------------------------------------------------------ mc-martingale

class McMartingale(Workload):
    """Criterion-5 shape martingale-zero-mean experiments, few paths each."""

    name = "mc-martingale"
    sizes = {
        "full": {"n_steps": 4096, "eps": 1e-3, "n_paths": 2},
        "smoke": {"n_steps": 64, "eps": 5e-2, "n_paths": 2},
    }
    params = {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0}
    levels = [0.0, 0.5]
    checkpoints = [0.25, 0.5, 1.0]

    def _spec(self, seed: int, n_steps: int, n_paths: int, out_dir: str):
        return {
            "kind": "martingale-zero-mean",
            "params": dict(self.params),
            "sim": {"T": 1.0, "n_steps": n_steps, "eps": self.size["eps"]},
            "seed": seed,
            "options": {"n_paths": n_paths, "levels": list(self.levels),
                        "checkpoints": list(self.checkpoints)},
            "out_dir": out_dir,
        }

    def job_inputs(self, index: int) -> dict:
        return self._spec(job_seed(self.name, self.seed, index),
                          self.size["n_steps"], self.size["n_paths"],
                          str(self.scratch / "report"))

    def warm_up(self) -> None:
        # same (params, eps) as the jobs, so the compensator is ready after
        st_experiments.run_experiment(self._spec(
            job_seed(self.name, self.seed, -1), 16, 2,
            str(self.scratch / "warm-up")))

    def run_job(self, index: int):
        return st_experiments.run_experiment(self.job_inputs(index))

    def inspect(self, index: int, raw) -> JobOutcome:
        report_path = self.scratch / "report" / "report.json"
        payload = report_path.read_bytes()
        problems = []
        written = json.loads(payload)
        if written["statistics"] != raw.statistics:
            problems.append("report.json statistics differ from the report")
        stats = {}
        combos = [f"martingale-mean-zero[a={a:g},t={t:g}]"
                  for a in self.levels for t in self.checkpoints]
        if sorted(raw.statistics) != sorted(combos):
            problems.append(f"unexpected statistics {sorted(raw.statistics)}")
            return JobOutcome(self.size["n_paths"], digest_bytes(payload),
                              stats, problems)
        verdicts = {v.criterion: v for v in raw.verdicts}
        for name in combos:
            entry = raw.statistics[name]
            for key in ("mean", "stderr", "second_moment"):
                stats[f"{name}.{key}"] = entry[key]
            stats[f"{name}.passed"] = verdicts[name].passed
            if not all(_finite(entry[k]) for k in
                       ("mean", "stderr", "second_moment")):
                problems.append(f"{name}: non-finite statistics")
            elif not (entry["stderr"] > 0.0
                      and entry["second_moment"] >= entry["mean"] ** 2
                      * (1.0 - 1e-12)):
                problems.append(f"{name}: inconsistent moments {entry}")
        return JobOutcome(self.size["n_paths"], digest_bytes(payload),
                          stats, problems)

    def pooled_problems(self, outcomes: list) -> list:
        # criterion 5: the martingale part has mean zero at every (a, t)
        n = self.size["n_paths"] * len(outcomes)
        if n < MIN_POOLED_PATHS:
            return []
        problems = []
        for a in self.levels:
            for t in self.checkpoints:
                name = f"martingale-mean-zero[a={a:g},t={t:g}]"
                mean = float(np.mean([o.stats[f"{name}.mean"] for o in outcomes]))
                m2 = float(np.mean([o.stats[f"{name}.second_moment"]
                                    for o in outcomes]))
                var = (m2 - mean ** 2) * n / (n - 1)
                z = abs(mean) / math.sqrt(var / n)
                if not z <= Z_BAR:
                    problems.append(f"pooled {name}: |z| = {z:.2f} over "
                                    f"{n} paths exceeds {Z_BAR}")
        return problems

    def tolerance(self, key: str, expected: dict) -> tuple:
        # The compensator enters M only through its interpolation table. A
        # finer, wider table (120 nodes per decade, h_max = 1e5) moved
        # per-path M by at most 6e-4 at this shape; a different compensator
        # recipe may move it by as much, a wrong result by far more.
        return 1e-2, 3e-3

    def flag_must_match(self, key: str, expected: dict) -> bool:
        # with two paths a verdict can sit on its bar; compare it only
        # where the reference z is clear of the bar by the stat tolerance
        name = key[:-len(".passed")]
        z = abs(expected[f"{name}.mean"]) / expected[f"{name}.stderr"]
        return abs(z - 4.0) > 0.05 * 4.0


# -------------------------------------------------------------- level-curve

class LevelCurve(Workload):
    """``stable-tanaka localtime`` on successive paths of one seed."""

    name = "level-curve"
    sizes = {
        "full": {"n_steps": 4096, "eps": 1e-3},
        "smoke": {"n_steps": 64, "eps": 5e-2},
    }
    T = 1.0

    def _argv(self, seed: int, path_index: int, n_steps: int, out: Path,
              extra=()) -> list:
        return ["localtime", "--alpha", "1.3", "--c-plus", "3",
                "--c-minus", "1", "--eps", repr(self.size["eps"]),
                "--n-steps", str(n_steps), "--T", repr(self.T),
                "--seed", str(seed), "--path-index", str(path_index),
                "--out", str(out), *extra]

    def job_inputs(self, index: int) -> list:
        # one stream of paths: the seed derives from the workload seed,
        # the job index is the path index
        return self._argv(job_seed(self.name, self.seed, 0), index,
                          self.size["n_steps"], self.scratch / "curve")

    def _call(self, argv: list):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = st_cli.main(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        code, _ = self._call(self._argv(
            job_seed(self.name, self.seed, -1), 0, 16,
            self.scratch / "warm-up", extra=("--levels", "0")))
        if code != 0:
            raise RuntimeError(f"warm-up localtime exited {code}")

    def run_job(self, index: int):
        return self._call(self.job_inputs(index))

    def inspect(self, index: int, raw) -> JobOutcome:
        code, printed = raw
        out = self.scratch / "curve"
        curve_bytes = (out / "localtime_curve.csv").read_bytes()
        meta_bytes = (out / "localtime_meta.json").read_bytes()
        digest = digest_bytes(curve_bytes, meta_bytes)
        problems = []
        if code != 0 or not printed.startswith("wrote "):
            problems.append(f"localtime exited {code}: {printed!r}")
        rows = list(csv.reader(io.StringIO(curve_bytes.decode("utf-8"))))
        if rows[0] != ["a", "occupation", "tanaka"]:
            problems.append(f"unexpected CSV header {rows[0]}")
        data = np.array(rows[1:], dtype=float)
        meta = json.loads(meta_bytes)
        a, occ, tan = data.T if data.ndim == 2 and data.shape[1] == 3 \
            else (np.zeros(0),) * 3
        if len(a) != 201 or not np.all(np.diff(a) > 0.0):
            problems.append("levels are not the 201-point increasing grid")
        if not np.all(np.isfinite(data)):
            problems.append("non-finite values in the curve")
        if np.any(occ < 0.0):
            problems.append("negative occupation estimate")
        if meta.get("levels") != a.tolist():
            problems.append("meta levels differ from the CSV levels")
        if (meta.get("path_index") != index or meta.get("horizon") != self.T
                or not meta.get("n_jumps", 0) > 0):
            problems.append(f"unexpected meta {meta.get('path_index')}, "
                            f"{meta.get('horizon')}, {meta.get('n_jumps')}")
        if problems:
            return JobOutcome(1, digest, {}, problems)
        stats = {
            "a_min": float(a[0]),
            "a_max": float(a[-1]),
            "n_jumps": float(meta["n_jumps"]),
            "occupation_integral": float(np.trapezoid(occ, a)),
            "occupation_peak": float(occ.max()),
            "tanaka_integral": float(np.trapezoid(tan, a)),
            "tanaka_abs_sum": float(np.abs(tan).sum()),
        }
        return JobOutcome(1, digest, stats, problems)

    def pooled_problems(self, outcomes: list) -> list:
        if not outcomes:
            return []
        problems = []
        # criterion 7: with g == 1 the occupation curve integrates to the
        # horizon. Its 2% per-path bar holds at the criterion's symmetric
        # alpha = 1.5 shape; these skewed alpha = 1.3 paths span up to ~30
        # units, the 201-level grid is then coarser than the mollifier and
        # the trapezoid misses by up to ~8% either way on a wide path. So
        # the run's median integral is held to criterion 7's 5% hat bar.
        occ = np.array([o.stats["occupation_integral"] for o in outcomes])
        resid = abs(float(np.median(occ)) - self.T) / self.T
        if not resid < 0.05:
            problems.append(f"median occupation integral is off T by "
                            f"{resid:.3g} of T, not below 0.05")
        # criterion 6 budgets a 10% gap between the two estimators' means;
        # allow that plus Z_BAR standard errors of Monte Carlo noise
        tan = np.array([o.stats["tanaka_integral"] for o in outcomes])
        if len(tan) >= 2:
            se = float(tan.std(ddof=1)) / math.sqrt(len(tan))
            gap = abs(float(tan.mean()) - self.T)
            if not gap <= 0.10 * self.T + Z_BAR * se:
                problems.append(f"mean tanaka integral {tan.mean():.4g} is "
                                f"off T by {gap:.3g} (se {se:.3g})")
        return problems

    def tolerance(self, key: str, expected: dict) -> tuple:
        # the kernel route moves with the compensator, as in mc-martingale,
        # by up to 3e-3 per level
        if key == "tanaka_integral":
            return 1e-2, 3e-3 * (expected["a_max"] - expected["a_min"])
        if key == "tanaka_abs_sum":
            return 1e-2, 3e-3 * 201
        # occupation side and path geometry: no compensator involved
        return 1e-8, 1e-12


# --------------------------------------------------------------- law-checks

SYM = {"alpha": 1.5, "c_plus": 1.0, "c_minus": 1.0}
# criterion 1's (alpha, beta) corners and criterion 10's parameter sets
GI_CORNERS = [(1.2, 0.0), (1.5, 0.0), (1.5, 0.5), (1.8, -1.0), (1.3, 1.0)]
DENSITY_SETS = [(1.5, 1.0, 1.0), (1.5, 3.0, 1.0), (1.8, 1.0, 2.0)]
KS_CHUNK = 1000


class LawChecks(Workload):
    """Criteria 4, 1, 10 and the sampler validation: no grid paths."""

    name = "law-checks"
    sizes = {
        "full": {"ks_n": 10_000, "gi_points": 2 ** 14, "gi_corners": 5,
                 "density_points": 2 ** 15, "sv_samples": 100_000},
        "smoke": {"ks_n": 500, "gi_points": 2 ** 12, "gi_corners": 1,
                  "density_points": 2 ** 13, "sv_samples": 2_000},
    }

    def job_inputs(self, index: int) -> dict:
        seed = job_seed(self.name, self.seed, index)
        s = self.size
        specs = [{"kind": "generator-identity",
                  "params": {"alpha": alpha, "c_plus": 1.0 + beta,
                             "c_minus": 1.0 - beta},
                  "options": {"half_width": 40.0,
                              "n_points": s["gi_points"],
                              "bump_width": 2.0, "report_radius": 10.0,
                              "tolerance": 1e-2}}
                 for alpha, beta in GI_CORNERS[:s["gi_corners"]]]
        specs += [{"kind": "density-report",
                   "params": {"alpha": al, "c_plus": cp, "c_minus": cm},
                   "options": {"half_width": 80.0,
                               "n_points": s["density_points"],
                               "times": [0.5, 1.0, 2.0],
                               "mass_tolerance": 1e-6,
                               "symmetry_tolerance": 1e-8,
                               "selfsim_tolerance": 1e-6}}
                  for al, cp, cm in DENSITY_SETS]
        specs.append({"kind": "sampler-validation", "params": dict(SYM),
                      "seed": seed,
                      "options": {"n_samples": s["sv_samples"]}})
        return {"seed": seed, "ks_n": s["ks_n"], "specs": specs}

    def _ks(self, seed: int, n: int):
        # criterion 4: jump-decomposition terminal values against the exact
        # marginal sampler, two-sample KS, on independent streams. The
        # terminal sampler keys path i to stream (seed, 2^32 + i), so
        # drawing in chunks gives the same values as one call.
        params = derive_params(**SYM)
        cfg = st_pathsim.SimConfig(T=1.0, n_steps=16, eps=1e-3, seed=seed)
        chunks = []
        for start in range(0, n, KS_CHUNK):
            chunks.append(st_pathsim.sample_terminal_jumpdecomp(
                params, cfg, min(KS_CHUNK, n - start),
                stream_offset=2 ** 32 + start))
            self.step()
        jd = np.concatenate(chunks)
        mg = st_pathsim.sample_stable_increment(
            params, 1.0, st_pathsim.path_rng(seed, 0), size=n)
        return jd, mg, sps.ks_2samp(jd, mg)

    def warm_up(self) -> None:
        small = {"seed": 1, "ks_n": 10, "specs": [
            {"kind": "generator-identity", "params": dict(SYM),
             "options": {"n_points": 2 ** 10}},
            {"kind": "density-report", "params": dict(SYM),
             "options": {"n_points": 2 ** 10, "half_width": 20.0,
                         "times": [1.0]}},
            {"kind": "sampler-validation", "params": dict(SYM),
             "options": {"n_samples": 100}}]}
        self._run(small)

    def _run(self, inputs: dict):
        ks = self._ks(inputs["seed"], inputs["ks_n"])
        self.step()
        reports = []
        for spec in inputs["specs"]:
            reports.append(st_experiments.run_experiment(spec))
            self.step()
        return ks, reports

    def run_job(self, index: int):
        return self._run(self.job_inputs(index))

    def inspect(self, index: int, raw) -> JobOutcome:
        (jd, mg, ks), reports = raw
        problems, stats = [], {}
        n = self.size["ks_n"]
        if not (len(jd) == len(mg) == n and np.all(np.isfinite(jd))
                and np.all(np.isfinite(mg))):
            problems.append("terminal samples are not n finite values")
        stats["ks.statistic"] = float(ks.statistic)
        stats["ks.pvalue"] = float(ks.pvalue)
        if not ks.pvalue > KS_P_MIN:
            problems.append(f"KS p {ks.pvalue:.3g} is not above {KS_P_MIN}")
        payloads = [json.dumps({"ks": [stats["ks.statistic"],
                                       stats["ks.pvalue"]]}).encode()]
        for j, report in enumerate(reports):
            tag = f"{j}.{report.kind}"
            payloads.append(json.dumps(
                {"statistics": report.statistics,
                 "verdicts": [[v.criterion, v.measured, v.passed]
                              for v in report.verdicts]},
                sort_keys=True).encode())
            for v in report.verdicts:
                stats[f"{tag}.{v.criterion}"] = float(v.measured)
                stats[f"{tag}.{v.criterion}.passed"] = bool(v.passed)
            if report.kind == "sampler-validation":
                # criterion 3's componentwise CF z, at the any-seed bar
                for v in report.verdicts:
                    if not v.measured <= Z_BAR:
                        problems.append(f"{v.criterion}: |z| {v.measured:.2f}"
                                        f" exceeds {Z_BAR}")
            elif not report.all_passed:
                # generator identity (criterion 1) and densities
                # (criterion 10) are deterministic: their own bars apply
                failed = [v.criterion for v in report.verdicts
                          if not v.passed]
                problems.append(f"{report.kind} failed {failed}")
        return JobOutcome(n, digest_bytes(*payloads), stats, problems)

    def tolerance(self, key: str, expected: dict) -> tuple:
        if "generator-identity" in key:
            # a ~1e-7 residual of O(1) terms: reordering moves its last digits
            return 1e-3, 1e-9
        if "density-" in key:
            # roundoff-level residuals around exact identities
            return 0.0, 1e-10
        # samplers and statistics of the samples
        return 1e-6, 1e-12

    def flag_must_match(self, key: str, expected: dict) -> bool:
        return "sampler-validation" not in key or \
            abs(expected[key[:-len(".passed")]] - 4.0) > 1e-3


WORKLOADS = {w.name: w for w in (McMartingale, LevelCurve, LawChecks)}


def load_reference() -> dict | None:
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
