"""The multi-seed length-shift study: train the baselines and the
multi-branch model on one synthetic protocol and compare them per length.

The study is a table of rows (``study_rows``). A learned row names, for
each eval length h, the flat config overrides of the model it scores there;
``run_seed`` trains each distinct override set once through
``training.train`` and scores every row at every branch length on the same
test table. A zero-parameter row has no model and scores its ``predict``
with one sample. So a new comparison (another strategy, an ablation) is one
more ``Row`` and no new study code.

The prototype row is the long-length isolated model evaluated at shorter
lengths, exposing the degradation that motivates everything else; isolated
training (``it``) provides the per-length reference, and the multi-branch
model (``fln``) is expected to track or beat it at every length after a
single training run. Two zero-parameter rows, ``cv`` (constant velocity) and
``ctrv`` (constant turn rate), show what the observed history alone is worth
at each length.
"""
from __future__ import annotations

import csv
import time
from collections.abc import Callable
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
    build_run_config,
    run_config_to_flat,
)
from .data import DatasetSplit, Normalizer, agent_table, generate_from_config, split_scenes
from .evaluation import evaluate_table
from .mixture import MixturePrediction
from .training import train


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
    """``evaluate_table``'s ``predict`` for a zero-parameter extrapolator: the
    rollout of each normalized window as a one-mode mixture, scored with
    k=1 by the code that scores the learned rows. Both extrapolators
    commute with the agents' frames (a translation, a rotation and a
    scale), so the row equals the rollout of the raw history in meters, up
    to rounding."""

    def predict(_params, obs: np.ndarray) -> MixturePrediction:
        means = rollout(obs, horizon)[..., None, :, :]  # (A, 1, T, 2)
        return MixturePrediction(
            Tensor(means), Tensor(np.ones_like(means)), Tensor(np.zeros(means.shape[:-2]))
        )

    return predict


@dataclass(frozen=True)
class Row:
    """One row of the study. A learned row's ``overrides(h)`` are the flat
    config keys, over the seed's run config, of the model it scores at eval
    length h; a zero-parameter row has none and scores ``predict`` (an
    ``evaluate_table`` predict) with one sample."""

    name: str
    overrides: Callable[[int], dict[str, object]] | None = None
    predict: Callable | None = None


def study_rows(base: RunConfig) -> list[Row]:
    """The study's rows: ``it`` (isolated at each length), ``prototype``
    (isolated at h_long, fed every length), ``fln``, ``cv`` and ``ctrv``."""
    h_long, horizon = base.branches.h_long, base.backbone.horizon
    return [
        Row("it", lambda h: {"strategy": "isolated", "isolated_length": h}),
        Row("prototype", lambda h: {"strategy": "isolated", "isolated_length": h_long}),
        Row("fln", lambda h: {"strategy": "fln"}),
        Row("cv", predict=_rollout_predict(cv_rollout, horizon)),
        Row("ctrv", predict=_rollout_predict(ctrv_rollout, horizon)),
    ]


@dataclass
class SeedOutcome:
    seed: int
    split: DatasetSplit
    normalizer: Normalizer
    models: dict[tuple[str, int], FlnParams]  # (row, eval length) -> the model scored there
    ade: dict[tuple[str, int], float]         # (row, eval length) -> test ADE
    fde: dict[tuple[str, int], float]


def run_seed(cfg: RunConfig, rows: list[Row]) -> SeedOutcome:
    """One seed of the study: ``cfg``'s scenes, split, and a normalizer fit
    on the train split; each distinct override set of ``rows`` trained once
    through ``training.train``, so rows that name the same model share it
    (the prototype is the ``it`` model at h_long); then every row scored at
    every branch length on the test table, built once, with ``cfg``'s
    samples by mode means, one forward per model and length
    (``evaluation.evaluate_table``)."""
    scenes = generate_from_config(cfg.data, cfg.seed)
    split = split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)
    normalizer = Normalizer(cfg.data.horizon).fit(split.train)
    lengths = list(cfg.branches.lengths.values())
    flat = run_config_to_flat(cfg)
    trained: dict[tuple, FlnParams] = {}
    models: dict[tuple[str, int], FlnParams] = {}
    for row in rows:
        for h in lengths if row.overrides else ():
            overrides = row.overrides(h)
            key = tuple(sorted(overrides.items()))
            if key not in trained:
                trained[key], _ = train(split, build_run_config({**flat, **overrides}), normalizer)
            models[(row.name, h)] = trained[key]

    ade: dict[tuple[str, int], float] = {}
    fde: dict[tuple[str, int], float] = {}
    test_table = agent_table(split.test, normalizer)
    for row in rows:
        for h in lengths:
            key = (row.name, h)
            if row.predict is None:
                score = evaluate_table(models[key], test_table, h, cfg.eval.samples, normalizer)
            else:
                score = evaluate_table(None, test_table, h, 1, normalizer, predict=row.predict)
            ade[key], fde[key] = score
    return SeedOutcome(cfg.seed, split, normalizer, models, ade, fde)


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
    """``run_seed`` of every row of ``study_rows(base)`` for each seed.

    The ``prototype`` rows evaluate the long-length isolated model at the
    shorter lengths (its positional encoding follows the shorter input, which
    is exactly the shift being measured). The ``cv`` and ``ctrv`` rows score
    ``backbone.cv_rollout`` and ``ctrv_rollout`` of the same windows.
    """
    result = StudyResult(config=base)
    rows = study_rows(base)
    for seed in seeds:
        started = time.perf_counter()
        outcome = run_seed(replace(base, seed=seed), rows)
        result.seeds.append(outcome)
        if verbose:
            elapsed = time.perf_counter() - started
            summary = "  ".join(
                f"H'={h}: " + " ".join(f"{r.name} {outcome.ade[(r.name, h)]:.3f}" for r in rows)
                for h in base.branches.lengths.values()
            )
            print(f"seed {seed} ({elapsed:.0f}s)  {summary}")
    return result
