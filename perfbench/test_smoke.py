"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, in a few seconds.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(trace):
    out = run("--workload", "all", "--smoke", "--seed", "3", "--seconds", "0",
              "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])["workloads"]


def test_untraced_smoke_reports_every_end_to_end_metric():
    names = {m["name"] for m in SPEC["end_to_end"]}
    results = smoke(0)
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    names = {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = smoke(1), smoke(1)
    for workload, result in first.items():
        assert set(result["metrics"]) == names
        for key in ("attempted", "failed"):
            assert result[key] == second[workload][key], (workload, key)
        for name in counts:
            assert (
                result["metrics"][name]["value"]
                == second[workload]["metrics"][name]["value"]
            ), (workload, name)


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run("--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=bare)
        assert out.returncode != 0
        assert not out.stdout.strip()
    finally:
        shutil.rmtree(bare)
