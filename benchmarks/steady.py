"""Steadiness of the benchmark: run workloads over several seeds, summarise.

    python3 benchmarks/steady.py --workloads all --seeds 1-10
    python3 benchmarks/steady.py --workloads evaluate --seeds 1-5 --trace 1

Runs ``run.py`` once per (workload, seed), one process at a time, and
prints a Markdown table per workload: each metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them), min and max, and the
spread (Q3 - Q1) / median next to the bound from ``BENCHMARK.json``.  It
also prints each run's failed share of attempted operations, which must
be identical across runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, runs: list[dict], bounds: dict) -> None:
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    correct = all(r["correct"] for r in runs)
    print(f"\n### {workload}: {len(runs)} runs, correct {correct}, failed share {shares}\n")
    print("| metric | unit | median | Q1 | Q3 | min | max | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"| {name} | {first['unit']} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{min(values):.6g} | {max(values):.6g} | {spread:.4f} | "
              f"{'' if bound is None else bound} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed phase per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}",
                  file=sys.stderr, flush=True)
        summarise(workload, runs, bounds)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
