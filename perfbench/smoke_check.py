"""Smoke check of the benchmark on tiny inputs.

    python3 perfbench/smoke_check.py
    python3 -m pytest -q perfbench/smoke_check.py

Runs every workload untraced (selftest too, which BENCHMARK.json leaves out)
and one traced, each with --smoke, and checks the result line against
BENCHMARK.json. Also checks that the benchmark refuses to run, without
printing a result, where no program sources exist.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(done: subprocess.CompletedProcess, spec_metrics: list[dict]) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    return {name: value["value"] for name, value in metrics.items()}


def test_every_workload_end_to_end() -> None:
    for workload in WORKLOADS:
        values = check_result(bench(ROOT, workload, 0), SPEC["end_to_end"])
        assert all(v > 0 for v in values.values()), (workload, values)


def test_traced_run_adds_up() -> None:
    values = check_result(bench(ROOT, "su21-weyl", 1), SPEC["per_layer"])
    assert values["dressing.points"] == 48 and values["dressing.singular.branch"] == 3
    assert values["cli.write.bytes"] > 0 and values["error_rate"] == 0
    stage_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert abs(stage_sum + values["trace.outside_s"] - values["trace.wall_s"]) < 1e-9


def test_refuses_without_program_sources() -> None:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, SPEC["workloads"][0]["name"], 0)
        assert done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:  # a benchmark run still uses it
            pass


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
