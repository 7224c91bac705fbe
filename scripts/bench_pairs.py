#!/usr/bin/env python3
"""Benchmark this checkout against another revision in pairs of runs.

    python3 scripts/bench_pairs.py --against HEAD~1 --workload fln_train --pairs 10 [--claim wall_ref]

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

Below the table it prints, ungated, each side's median minor page faults
and system CPU seconds per run, read with ``getrusage(RUSAGE_CHILDREN)``
around each run's subprocess.

``--claim METRIC`` then prints that rule's verdict for one end-to-end
metric, ``met`` or ``not met``, and exits 1 when it is not met. A claim is
met when this checkout wins at least nine tenths of the pairs, its median
is better than the parent's by more than the parent's quartile distance
(``q3 - q1``), and no larger share of its operations failed.
"""
from __future__ import annotations

import argparse
import json
import resource
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
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=1800)
    usage = child_usage(usage, resource.getrusage(resource.RUSAGE_CHILDREN))
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["elapsed"] = time.perf_counter() - started
    result["usage"] = usage
    return result


def child_usage(before, after) -> dict[str, float]:
    """Minor page faults and system CPU seconds between two
    ``getrusage(RUSAGE_CHILDREN)`` readings: what the children that ended in
    between used."""
    return {
        "minflt": after.ru_minflt - before.ru_minflt,
        "sys_s": after.ru_stime - before.ru_stime,
    }


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """First quartile, median, third quartile, and their spread
    ``(q3 - q1) / |median|``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else float("nan")


def pair_record(change: list[float], parent: list[float], lower: bool) -> tuple[int, int, int]:
    """Pairs this checkout won, lost and tied, in the metric's direction."""
    pairs = list(zip(change, parent, strict=True))
    wins = sum((c < p) if lower else (c > p) for c, p in pairs)
    ties = sum(c == p for c, p in pairs)
    return wins, len(pairs) - wins - ties, ties


def claim_verdict(
    change: list[float], parent: list[float], lower: bool, failed_share: dict[str, float]
) -> tuple[bool, str]:
    """Whether a claimed gain holds by ``perfbench/README.md``'s rule, and why."""
    wins, _, _ = pair_record(change, parent, lower)
    needed = -(-9 * len(parent) // 10)  # nine tenths of the pairs, rounded up
    q1, median, q3, _ = quartiles(parent)
    gain = (median - statistics.median(change)) * (1 if lower else -1)
    checks = [
        (wins >= needed, f"{wins} of {len(parent)} pairs won, {needed} needed"),
        (gain > q3 - q1, f"median better by {gain:.6g}, parent quartile distance {q3 - q1:.6g}"),
        (
            failed_share["change"] <= failed_share["parent"],
            f"failed share {failed_share['change']:.4g} against the parent's "
            f"{failed_share['parent']:.4g}",
        ),
    ]
    return all(ok for ok, _ in checks), "; ".join(reason for _, reason in checks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", required=True, help="revision to compare with")
    parser.add_argument(
        "--workload", required=True, choices=["fln_train", "single_train", "eval_sweep"]
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--claim", metavar="METRIC", help="end-to-end metric whose claimed gain to judge"
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")  # quartiles need two runs a side
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim: {args.claim!r} is not an end-to-end metric of BENCHMARK.json")

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
    verdict = None
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        series = {
            side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()
        }
        if any(v is None for values in series.values() for v in values):
            print(f"{name:14s} missing values: {series}")
            if name == args.claim:
                verdict = False, "missing values"
            continue
        for side in ("parent", "change"):
            q1, q2, q3, spread = quartiles(series[side])
            won = ""
            if side == "change":
                wins, losses, ties = pair_record(series["change"], series["parent"], lower)
                won = f"{wins} won, {losses} lost, {ties} tied"
            print(f"{name:14s} {side:6s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {won}")
        if name == args.claim:
            failed_share = {
                side: sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)
                for side, runs in results.items()
            }
            verdict = claim_verdict(series["change"], series["parent"], lower, failed_share)
    print(f"\nper run, not gated: {'side':6s} {'minor faults':>12s} {'system s':>9s}")
    for side in ("parent", "change"):
        faults = statistics.median(r["usage"]["minflt"] for r in results[side])
        sys_s = statistics.median(r["usage"]["sys_s"] for r in results[side])
        print(f"{'':19s} {side:6s} {faults:12.0f} {sys_s:9.3f}")
    if verdict is None:
        return 0
    met, reasons = verdict
    print(f"\nclaim {args.claim} on {args.workload}: {'met' if met else 'not met'} ({reasons})")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
