"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced. Run with ``python3 -m pytest perfbench/test_smoke.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def detail_and_result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_same_decisions(workload):
    plain_detail, plain = detail_and_result(run_bench(workload, 0))
    traced_detail, traced = detail_and_result(run_bench(workload, 1))
    for result, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec}
    assert plain_detail["stamp"]["python"] and plain_detail["seed"] == 3
    # the traced run decides its first cycles with the wrappers installed;
    # the untraced run must decide the same inputs the same way
    decided = traced_detail["decisions"]
    assert len(plain_detail["decisions"]) >= len(decided)
    assert plain_detail["decisions"][: len(decided)] == decided


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("honest-roundtrip", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
