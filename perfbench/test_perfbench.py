"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Smoke runs use tiny inputs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, apply_unified, resolve_conflicts  # noqa: E402

WORKLOADS = ("diff", "merge", "history")


def smoke(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def digest(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("# outputs sha256="))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (1, 7))
def test_smoke_run_is_correct(workload, seed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, _ = smoke(workload, seed, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digest_repeat(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, lines1 = smoke(workload, 3, 1)
    second, lines2 = smoke(workload, 3, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    assert digest(lines1) == digest(lines2)


def test_layers_reached_per_workload():
    reached = {w: smoke(w, 1, 1)[0]["metrics"] for w in WORKLOADS}
    assert reached["diff"]["histogram.find_split.calls"]["value"] > 0
    assert reached["diff"]["slider.groups"]["value"] > 0
    assert reached["diff"]["merge3.base_diff.calls"]["value"] == 0
    assert reached["diff"]["graph.add_commit.calls"]["value"] == 0
    assert reached["merge"]["merge3.regions"]["value"] > 0
    assert reached["merge"]["slider.groups"]["value"] == 0
    assert reached["merge"]["graph.add_commit.calls"]["value"] == 0
    assert reached["history"]["graph.merge_calls"]["value"] > 0
    assert reached["history"]["cli.main.self_ms"]["value"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diff", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_apply_unified_checks_bodies_and_missing_newline():
    old = b"a\nb\nc\n"
    patch = b"--- x\n+++ y\n@@ -2,2 +2,2 @@\n b\n-c\n+C\n\\ No newline at end of file\n"
    assert apply_unified(old, patch) == (b"a\nb\nC", 2)
    with pytest.raises(CheckFailed):
        apply_unified(old, patch.replace(b" b\n", b" B\n"))


def test_resolve_conflicts_in_diff3_style():
    merged = b"x\n<<<<<<< ours\nL\n||||||| base\nB\n=======\nR\n>>>>>>> theirs\ny\n"
    assert resolve_conflicts(merged, "ours") == (b"x\nL\ny\n", 1)
    assert resolve_conflicts(merged, "theirs") == (b"x\nR\ny\n", 1)
