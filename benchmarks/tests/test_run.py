"""The command end to end: every workload in tiny mode, and a checkout
without the program.

    python3 -m pytest benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Margins over chance or over random words: tiny models need not meet them.
# Every other check is exact and must pass at any size.
NEED_FULL_SIZES = {
    "held-out accuracy beats chance", "final training loss below ln K",
    "trailing reward not below random words", "greedy enquirer not below random words",
    "accuracy rises with the word budget 1 < 3 < 20",
    "accuracy falls with the guest count 5 > 10 > 50", "cosine yardstick beats chance",
}


def run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    failed = {line.split(" FAIL ", 1)[1].split(" (")[0]
              for line in proc.stderr.splitlines() if line.startswith("check ") and " FAIL " in line}
    assert failed <= NEED_FULL_SIZES, failed


def test_layer_table_matches_benchmark_json():
    assert [m[0] for m in tracing.LAYER_METRICS] == [m["name"] for m in SPEC["per_layer"]]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "evaluate", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
