"""The multi-seed length-shift study: train the baselines and the
multi-branch model on one synthetic protocol and compare them per length.

The prototype row is the long-length model evaluated at shorter lengths,
exposing the degradation that motivates everything else; isolated training
provides the per-length reference, and the multi-branch model is expected to
track or beat it at every length after a single training run. Two
zero-parameter rows, ``cv`` (constant velocity) and ``ctrv`` (constant turn
rate), show what the observed history alone is worth at each length.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .backbone import FlnParams, cv_rollout
from .config import (
    BackboneConfig,
    BranchConfig,
    DataConfig,
    EvalConfig,
    RunConfig,
    TrainConfig,
)
from .data import DatasetSplit, Normalizer, generate_from_config, group_scenes, split_scenes
from .evaluation import evaluate_groups
from .mixture import MixturePrediction
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


def ctrv_rollout(observations: np.ndarray, horizon: int) -> np.ndarray:
    """Constant-turn-rate extrapolation of a window (..., H, 2), (..., T, 2).

    The turn rate is the mean of the heading changes between consecutive
    observed steps, each wrapped to (-pi, pi] and weighted by the smaller of
    its two step speeds; it is 0 when every weight is 0 (a window of two
    points, a stopped agent). The rollout starts at the last point and
    repeats the last step's displacement, turned by the turn rate once more
    before each step, so a zero turn rate gives ``cv_rollout`` bit for bit.
    """
    obs = np.asarray(observations, dtype=np.float64)
    last = obs[..., -1, :]
    vel = last - obs[..., -2, :] if obs.shape[-2] > 1 else np.zeros_like(last)
    steps = obs[..., 1:, :] - obs[..., :-1, :]  # (..., H-1, 2)
    speed = np.hypot(steps[..., 0], steps[..., 1])
    heading = np.arctan2(steps[..., 1], steps[..., 0])
    turn = np.pi - (np.pi - (heading[..., 1:] - heading[..., :-1])) % (2 * np.pi)
    weight = np.minimum(speed[..., :-1], speed[..., 1:])
    total = weight.sum(axis=-1)
    omega = np.divide(
        (turn * weight).sum(axis=-1), total, out=np.zeros_like(total), where=total > 0
    )
    angles = np.arange(1, horizon + 1, dtype=np.float64) * omega[..., None]  # (..., T)
    cos, sin = np.cumsum(np.cos(angles), axis=-1), np.cumsum(np.sin(angles), axis=-1)
    vx, vy = vel[..., None, 0], vel[..., None, 1]
    return last[..., None, :] + np.stack([cos * vx - sin * vy, sin * vx + cos * vy], axis=-1)


def _rollout_predict(rollout, horizon: int):
    """``evaluate_groups``' ``predict`` for a zero-parameter extrapolator: the
    rollout of each normalized window as a one-mode mixture, scored with
    k=1 by the code that scores the learned rows. Both extrapolators
    commute with the agents' frames (a translation, a rotation and a
    scale), so the row equals the rollout of the raw history in meters, up
    to rounding."""

    def predict(_params, obs: np.ndarray) -> MixturePrediction:
        means = rollout(obs, horizon)[..., None, :, :]  # (B, N, 1, T, 2)
        return MixturePrediction(
            Tensor(means), Tensor(np.ones_like(means)), Tensor(np.zeros(means.shape[:-2]))
        )

    return predict


@dataclass
class SeedOutcome:
    seed: int
    split: DatasetSplit
    normalizer: Normalizer
    isolated: dict[int, FlnParams]      # length -> model trained at that length
    fln: FlnParams
    ade: dict[tuple[str, int], float]   # (row, eval length) -> test ADE
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
    is exactly the shift being measured). The ``cv`` and ``ctrv`` rows score
    ``backbone.cv_rollout`` and ``ctrv_rollout`` of the same windows. Test
    scenes are grouped once per seed and scored by mode-means, one forward
    per group (``evaluation.evaluate_groups``).
    """
    result = StudyResult(config=base)
    lengths = list(base.branches.lengths.values())
    h_long = base.branches.h_long
    physics = {
        "cv": _rollout_predict(cv_rollout, base.backbone.horizon),
        "ctrv": _rollout_predict(ctrv_rollout, base.backbone.horizon),
    }
    for seed in seeds:
        started = time.perf_counter()
        cfg = replace(base, seed=seed)
        scenes = generate_from_config(cfg.data, cfg.seed)
        split = split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)
        normalizer = Normalizer(cfg.data.horizon).fit(split.train)
        isolated: dict[int, FlnParams] = {}
        for h in lengths:
            isolated[h], _ = train_isolated(split, cfg, h, normalizer)
        fln_params, _ = train_fln(split, cfg, normalizer)

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
            for row, predict in physics.items():
                ade[(row, h)], fde[(row, h)] = evaluate_groups(
                    None, test_groups, h, 1, normalizer, predict=predict
                )
        result.seeds.append(
            SeedOutcome(seed, split, normalizer, isolated, fln_params, ade, fde)
        )
        if verbose:
            elapsed = time.perf_counter() - started
            summary = "  ".join(
                f"H'={h}: it {ade[('it', h)]:.3f} proto {ade[('prototype', h)]:.3f} "
                f"fln {ade[('fln', h)]:.3f} cv {ade[('cv', h)]:.3f} ctrv {ade[('ctrv', h)]:.3f}"
                for h in lengths
            )
            print(f"seed {seed} ({elapsed:.0f}s)  {summary}")
    return result
