"""The benchmark's own smoke test (tiny shapes, one second per run).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert np.isfinite(result["metrics"][m["name"]]["value"])
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   for line in lines), m["name"]
    assert any(line.startswith("fail_ratio 0/") for line in lines)


def test_a_wrong_reference_apfdv_fails_the_check(monkeypatch):
    from phisoft import decide

    import layers

    a, b = gen.make_pair(np.random.default_rng(3), 6, 5, 4, 2)
    report = decide(layers.to_softset(a), layers.to_softset(b),
                    layers.config("eintersect", "geometric", "es"))
    ref = reference.combine(a, b, "eintersect")
    rows = layers.rows_of(report)
    assert reference.report_faults(rows, report.ranking(), ref, "geometric", "es") == []

    right = reference.apfdv
    monkeypatch.setattr(reference, "apfdv",
                        lambda t, agg: (right(t, agg)[0] + 1e-9, right(t, agg)[1]))
    faults = reference.report_faults(rows, report.ranking(), ref, "geometric", "es")
    assert any(f.startswith("apfdv m") for f in faults)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
