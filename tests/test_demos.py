"""Every demo runs to the end: exit 0 and nothing on stderr.

Each runs in its own interpreter, with the package's source on its path
and its working directory in a fresh temporary directory, so a demo that
writes a file leaves nothing in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stable_tanaka

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    src = str(Path(stable_tanaka.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
