"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# A line each demo must print, where it has one to check.
EXPECTED = {"diagnosis_pipeline": "ranking: p4 > p3 > p1 > p2\n"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED.get(demo.stem, "") in result.stdout
