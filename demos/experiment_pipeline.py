"""Drive the experiment runner from Python: build a spec, run it, read the
verdicts, and write a deterministic report bundle.

The same spec as a JSON file works through the command line:

    stable-tanaka run spec.json --out results/

Reports with identical spec + seed are byte-identical, so diffing two
result directories answers "did anything change?" at a glance.
"""

import json
import tempfile
from pathlib import Path

from stable_tanaka import ExperimentSpec, emit_report, run_experiment

spec = ExperimentSpec.from_dict({
    "kind": "sampler-validation",
    "params": {"alpha": 1.5, "c_plus": 3.0, "c_minus": 1.0},
    "options": {"n_samples": 50_000, "u": [0.5, 1.0, 2.0]},
    "seed": 11,
})

report = run_experiment(spec)
print(f"experiment: {report.kind}   wall time {report.wall_time_s:.2f}s")
for line in report.summary_lines():
    print("  " + line)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "results"
    emit_report(report, out)  # report.json plus one CSV per curve
    files = sorted(p.name for p in out.iterdir())
    print(f"\nbundle files: {files}")
    payload = json.loads((out / "report.json").read_text())
    print(f"report keys:  {sorted(payload)}")
    print(f"all passed:   {report.all_passed}")
