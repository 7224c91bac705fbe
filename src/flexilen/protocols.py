"""The multi-seed length-shift study: train the baselines and the
multi-branch model on one synthetic protocol and compare them per length.

The prototype row is the long-length model evaluated at shorter lengths,
exposing the degradation that motivates everything else; isolated training
provides the per-length reference, and the multi-branch model is expected to
track or beat it at every length after a single training run.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backbone import FlnParams
from .config import (
    BackboneConfig,
    BranchConfig,
    DataConfig,
    EvalConfig,
    RunConfig,
    TrainConfig,
)
from .data import DatasetSplit, Normalizer, generate_from_config, split_scenes
from .evaluation import evaluate_groups, group_scenes
from .training import train_fln, train_isolated


def study_run_config(
    n_scenes: int = 2000,
    epochs: int = 25,
    lengths: tuple[int, int, int] = (2, 6, 8),
    horizon: int = 12,
    seed: int = 0,
) -> RunConfig:
    """The pinned desk-scale protocol for the directional comparisons."""
    return RunConfig(
        backbone=BackboneConfig(
            d_model=16, heads=2, layers=1, dec_hidden=32, modes=2, horizon=horizon
        ),
        branches=BranchConfig(h_short=lengths[0], h_medium=lengths[1], h_long=lengths[2]),
        data=DataConfig(
            n_scenes=n_scenes,
            agents_min=2,
            agents_max=4,
            obs_len=lengths[2],
            horizon=horizon,
            noise_sigma=0.03,
            motion_cv=0.6,
            motion_turn=0.3,
            motion_stop=0.1,
        ),
        train=TrainConfig(strategy="fln", epochs=epochs, batch_size=64, lr=2e-3),
        eval=EvalConfig(samples=2),
        seed=seed,
    )


@dataclass
class SeedOutcome:
    seed: int
    split: DatasetSplit
    normalizer: Normalizer
    isolated: dict[int, FlnParams]      # length -> model trained at that length
    fln: FlnParams
    ade: dict[tuple[str, int], float]   # (model, eval length) -> test ADE
    fde: dict[tuple[str, int], float]


@dataclass
class StudyResult:
    config: RunConfig
    seeds: list[SeedOutcome] = field(default_factory=list)

    def mean_ade(self, model: str, h_eval: int) -> float:
        values = [outcome.ade[(model, h_eval)] for outcome in self.seeds]
        return sum(values) / len(values)

    def rows(self) -> list[dict]:
        out = []
        for outcome in self.seeds:
            for (model, h_eval), value in sorted(outcome.ade.items()):
                out.append(
                    {
                        "seed": outcome.seed,
                        "model": model,
                        "h_eval": h_eval,
                        "ade": value,
                        "fde": outcome.fde[(model, h_eval)],
                    }
                )
        return out

    def write_csv(self, path: str | Path) -> None:
        rows = self.rows()
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=["seed", "model", "h_eval", "ade", "fde"])
            writer.writeheader()
            writer.writerows(rows)


def run_length_shift_study(
    base: RunConfig, seeds: tuple[int, ...] = (0, 1, 2), verbose: bool = False
) -> StudyResult:
    """Train isolated models at every length plus the multi-branch model for
    each seed, then evaluate everything on the held-out test scenes.

    The ``prototype`` rows evaluate the long-length isolated model at the
    shorter lengths (its positional encoding follows the shorter input, which
    is exactly the shift being measured). Test scenes are grouped once per
    seed and scored by mode-means, one forward per group
    (``evaluation.evaluate_groups``).
    """
    result = StudyResult(config=base)
    lengths = list(base.branches.lengths.values())
    h_long = base.branches.h_long
    for seed in seeds:
        started = time.perf_counter()
        cfg = replace(base, seed=seed)
        scenes = generate_from_config(cfg.data, cfg.seed)
        split = split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)
        normalizer = Normalizer(cfg.data.horizon).fit(split.train)
        isolated: dict[int, FlnParams] = {}
        for h in lengths:
            isolated[h], _ = train_isolated(split, cfg, h, normalizer=normalizer)
        fln_params, _ = train_fln(split, cfg, normalizer=normalizer)

        ade: dict[tuple[str, int], float] = {}
        fde: dict[tuple[str, int], float] = {}
        test_groups = group_scenes(split.test, normalizer)
        for h in lengths:
            for model, params in (
                ("it", isolated[h]),
                ("prototype", isolated[h_long]),
                ("fln", fln_params),
            ):
                ade[(model, h)], fde[(model, h)] = evaluate_groups(
                    params, test_groups, h, base.eval.samples, normalizer
                )
        result.seeds.append(
            SeedOutcome(seed, split, normalizer, isolated, fln_params, ade, fde)
        )
        if verbose:
            elapsed = time.perf_counter() - started
            summary = "  ".join(
                f"H'={h}: it {ade[('it', h)]:.3f} proto {ade[('prototype', h)]:.3f} "
                f"fln {ade[('fln', h)]:.3f}"
                for h in lengths
            )
            print(f"seed {seed} ({elapsed:.0f}s)  {summary}")
    return result
