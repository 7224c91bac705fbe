"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload eval_sweep --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median, the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the bound from ``BENCHMARK.json``. Runs are
sequential subprocesses of ``perfbench/run.py``; each is waited for.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        low, high = spec.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - started
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {done.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} in {elapsed:.1f} s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        if len(series) < 2 or any(v is None for v in series):
            print(f"{name:40s} {series}")
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
