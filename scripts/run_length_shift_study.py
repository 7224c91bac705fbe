#!/usr/bin/env python3
"""Run the multi-seed length-shift study and write a per-seed results table.

Trains, for every seed: isolated models at each observation length plus the
multi-branch model, then evaluates each on held-out scenes at every length.
The 'prototype' rows are the long-length model evaluated at shorter lengths,
which exposes the degradation the multi-branch training removes; the 'cv'
(constant velocity) and 'ctrv' (constant turn rate) rows are zero-parameter
extrapolators of the same observed windows.

Example:
    python scripts/run_length_shift_study.py --out results/ --scenes 2000 \
        --epochs 25 --seeds 0 1 2
"""
from __future__ import annotations

import argparse
from pathlib import Path

from flexilen.protocols import run_length_shift_study, study_run_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scenes", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--lengths", type=int, nargs=3, default=[2, 6, 8],
                        metavar=("H_S", "H_M", "H_L"))
    parser.add_argument("--horizon", type=int, default=12)
    args = parser.parse_args()

    base = study_run_config(
        n_scenes=args.scenes,
        epochs=args.epochs,
        lengths=tuple(args.lengths),
        horizon=args.horizon,
    )
    result = run_length_shift_study(base, seeds=tuple(args.seeds), verbose=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.write_csv(out / "length_shift_study.csv")

    lengths = list(base.branches.lengths.values())
    print("\nmean ADE over seeds")
    print(
        f"{'H_eval':>7} {'isolated':>10} {'prototype':>10} {'multibranch':>12}"
        f" {'cv':>8} {'ctrv':>8}"
    )
    for h in lengths:
        print(
            f"{h:>7} {result.mean_ade('it', h):>10.4f} "
            f"{result.mean_ade('prototype', h):>10.4f} {result.mean_ade('fln', h):>12.4f}"
            f" {result.mean_ade('cv', h):>8.4f} {result.mean_ade('ctrv', h):>8.4f}"
        )
    print(f"\nwrote {out / 'length_shift_study.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
