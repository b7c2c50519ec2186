"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload in smoke mode, untraced and traced, through the
same entry point the full benchmark uses, and checks the result line.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_all_workloads_untraced_and_traced():
    proc = bench("--workload", "all", "--seed", "5", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in spec()["workloads"]:
        for m in spec()["end_to_end"] + spec()["per_layer"]:
            assert f"{w['name']}/{m['name']}" in result["metrics"]
        for m in spec()["end_to_end"]:
            assert result["metrics"][f"{w['name']}/{m['name']}"]["value"] > 0
    assert "exact_gap = 0 " in proc.stdout


def test_single_workload_prints_contract_line():
    proc = bench("--workload", "exhaustive_k15", "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}


def test_refuses_without_sources():
    """A tree holding only the benchmark has no program to measure."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench", prefix="bare-"))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "cli_k15", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
