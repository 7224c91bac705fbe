#!/usr/bin/env python3
"""Benchmark this checkout against another revision in pairs of runs.

    python3 scripts/bench_pairs.py --against HEAD~1 --workload fln_train --pairs 10

Extracts REV with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` once in each tree per pair: both sides of a pair get the
same seed (pair i, counted from 0, runs seed 1 + i) and ``BENCHMARK.json``'s
``run_seconds``, and the side that runs first alternates from pair to pair,
so a drift in the machine's speed falls on both. Runs are sequential
subprocesses, each waited for; each tree runs its own copy of the benchmark
on its own ``src/``.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles(values, n=4)``), the parent's
quartile spread (``(q3 - q1) / |median|``, as ``perfbench/spread.py``
computes it inside its ``main``), and how many pairs this checkout won, lost and tied, in the
metric's ``better`` direction. This is the procedure ``perfbench/README.md``
asks of a claimed gain: at least nine of ten pairs won, and medians further
apart than the parent's quartile spread.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from rev_tree import ROOT, extract


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["elapsed"] = time.perf_counter() - started
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", required=True, help="revision to compare with")
    parser.add_argument(
        "--workload", required=True, choices=["fln_train", "single_train", "eval_sweep"]
    )
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")  # quartiles need two runs a side
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="flexilen-pairs-") as tmp:
        trees = {"parent": extract(args.against, Path(tmp)), "change": ROOT}
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = 1 + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench(trees[side], args.workload, seed, seconds)
                results[side].append(result)
                print(f"pair {pair + 1} seed {seed} {side:6s}: correct {result['correct']} "
                      f"failed {result['failed']}/{result['attempted']} "
                      f"in {result['elapsed']:.1f} s", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {seconds:g} s per run, parent {args.against}")
    print(f"{'metric':14s} {'side':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"
          "  pairs won")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        series = {
            side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()
        }
        if any(v is None for values in series.values() for v in values):
            print(f"{name:14s} missing values: {series}")
            continue
        for side in ("parent", "change"):
            q1, q2, q3 = statistics.quantiles(series[side], n=4)
            spread = (q3 - q1) / abs(q2) if q2 else float("nan")
            won = ""
            if side == "change":
                pairs = list(zip(series["change"], series["parent"]))
                wins = sum((c < p) if lower else (c > p) for c, p in pairs)
                ties = sum(c == p for c, p in pairs)
                won = f"{wins} won, {len(pairs) - wins - ties} lost, {ties} tied"
            print(f"{name:14s} {side:6s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
