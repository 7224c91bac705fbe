"""flexilen benchmark: one workload per run, end-to-end or per-layer.

    python3 perfbench/run.py --workload fln_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The program is imported from
``src/`` of that checkout; BLAS is pinned to one thread before numpy loads.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced iterations, reports
the per-layer metrics from the traced ones, and states the tracer's cost.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MODULES = (
    "autodiff", "backbone", "checkpoint", "cli", "config", "data",
    "evaluation", "fln", "mixture", "protocols", "training",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "scenes_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "test_ade_m": "m",
    "ade_over_cv": "ratio",
}
INFO_UNITS = {"wall_s": "s", "scenes_per_s": "1/s", "ref_ms": "ms"}


def import_program():
    """Import flexilen from this checkout's ``src/`` and nowhere else."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    src = ROOT / "src"
    if not (src / "flexilen" / "__init__.py").is_file():
        raise FileNotFoundError(f"no flexilen sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("flexilen")
    if Path(package.__file__).resolve().parent != (src / "flexilen").resolve():
        raise ImportError(f"flexilen resolved to {package.__file__}, not this checkout")
    for name in MODULES:
        setattr(package, name, importlib.import_module(f"flexilen.{name}"))
    return package


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def measure(args, bench) -> dict:
    from layers import per_layer_metrics
    from workloads import WORKLOADS, throughput, training_quality

    if args.trace:
        bench.run = -1  # set-up runs once, traced, for data.generate_s
        setup_times = [bench.generate()]
        bench.run = None
    else:
        setup_times = [bench.generate() for _ in range(SETUP_REPEATS)]
    facts = bench.facts()
    workload = WORKLOADS[args.workload](bench, facts)
    workload.prepare()

    # closed loop: at least two iterations (three when tracing), then stop
    # once another would likely end more than half of one past --seconds
    iterations = []
    started = time.perf_counter()
    while len(iterations) < 2 + args.trace or (
        time.perf_counter() - started + iterations[-1].seconds / 2 < args.seconds
    ):
        traced = bool(args.trace) and len(iterations) % 2 == 1
        bench.run = sum(it.traced for it in iterations) if traced else None
        iteration = workload.iteration()
        bench.run = None
        iteration.traced = traced
        iterations.append(iteration)
    for iteration in iterations[1:]:
        bench.check("same seed gives identical outputs", iteration.signature == iterations[0].signature)

    untraced = [it for it in iterations if not it.traced]
    if args.trace:
        runs = list(range(sum(it.traced for it in iterations)))
        metrics = per_layer_metrics(bench.tracer, runs, [-1])
        epochs = [unit[2] for it in untraced for unit in it.units if unit[0].startswith("epoch")]
        metrics["training.epoch_s"] = statistics.median(epochs) if epochs else 0.0
        # neighbours share the machine's speed of the moment; the first
        # iteration also pays the process's warm-up, so it is left out
        warm = iterations[1:]
        metrics["trace.overhead_share"] = statistics.median(
            (b.seconds / a.seconds if b.traced else a.seconds / b.seconds) - 1.0
            for a, b in zip(warm, warm[1:])
        )
        metrics.update(training_quality(workload.summaries()))
        workload.trace_checks(metrics)
        return metrics

    test_ade = workload.quality()
    return {
        "setup_s": statistics.median(setup_times),
        "wall_ref": statistics.median(it.wall_ref for it in untraced),
        "scenes_per_ref": throughput(untraced, normalise=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_ade_m": test_ade,
        "ade_over_cv": test_ade / facts.cv_ade,
        # in seconds, printed but not gated: they carry the machine's drift
        "wall_s": statistics.median(it.seconds for it in untraced),
        "scenes_per_s": throughput(untraced, normalise=False),
        "ref_ms": 1e3 * statistics.median(ref for it in untraced for _, ref in it.commands),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fln_train", "single_train", "eval_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        fx = import_program()
    except (ImportError, FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    from layers import PER_LAYER_UNITS, targets
    from spans import Tracer
    from workloads import Bench

    work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = Tracer("flexilen") if args.trace else None
        bench = Bench(fx, work, args.seed, tracer, targets(fx) if tracer else None)
        try:
            metrics = measure(args, bench)
        except Exception:  # a crash inside a workload fails the run but still reports it
            bench.failures.append("workload raised:\n" + traceback.format_exc())
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"environment {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, unit in {**units, **({} if args.trace else INFO_UNITS)}.items():
        print(f"  {name:40s} {metrics.get(name, math.nan):>16.6g} {unit}")
    share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'failed_share':40s} {share:>16.6g} share ({bench.failed} of {bench.attempted} operations)")
    for failure in bench.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    def number(value):
        return value if isinstance(value, (int, float)) and math.isfinite(value) else None

    print(json.dumps({
        "correct": bench.failed == 0 and set(metrics) >= set(units),
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": number(metrics.get(name)), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
