import csv

import numpy as np
import pytest

from flexilen import backbone as bb
from flexilen.config import DataConfig
from flexilen.data import Normalizer, generate_from_config, group_scenes, split_scenes
from flexilen.evaluation import evaluate_groups
from flexilen.protocols import (
    _rollout_predict,
    ctrv_rollout,
    run_length_shift_study,
    study_run_config,
)


def _constant_turn(speed, heading, omega, steps):
    """A noiseless track of ``steps`` points whose displacement keeps its
    length and turns by ``omega`` each step, from an arbitrary start."""
    angles = heading + omega * np.arange(steps - 1)
    moves = speed * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return np.concatenate([[[1.5, -0.5]], [1.5, -0.5] + np.cumsum(moves, axis=0)])


@pytest.mark.parametrize("h", [3, 4, 6, 8])
@pytest.mark.parametrize("omega", [0.3, -0.05, 2.5])
def test_ctrv_reproduces_a_noiseless_constant_turn_agent(h, omega):
    horizon = 12
    track = _constant_turn(0.7, 0.4, omega, h + horizon)
    np.testing.assert_allclose(ctrv_rollout(track[:h], horizon), track[h:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("h", [1, 2])
def test_ctrv_without_a_heading_change_is_cv_bit_for_bit(h):
    obs = np.random.default_rng(3).normal(size=(3, 4, h, 2))
    assert np.array_equal(ctrv_rollout(obs, 5), bb.cv_rollout(obs, 5))


def test_ctrv_of_a_stopped_agent_stays_at_its_last_point():
    stopped = np.full((6, 2), 0.25)
    moving = _constant_turn(0.5, 1.0, 0.2, 3)
    halted = np.concatenate([moving, np.repeat(moving[-1:], 3, axis=0)])  # turns, then stops
    for obs in (stopped, halted):
        rollout = ctrv_rollout(obs, 4)
        assert np.isfinite(rollout).all()
        assert np.array_equal(rollout, np.repeat(obs[-1:], 4, axis=0))


def test_reference_rows_score_the_raw_rollout_in_meters():
    """Scored through ``evaluate_groups`` on normalized windows, a reference
    row equals the mean per-agent ADE of the rollout of the raw history."""
    horizon, h = 3, 4
    scenes = generate_from_config(
        DataConfig(n_scenes=24, agents_min=2, agents_max=4, obs_len=5, horizon=horizon), 4
    )
    normalizer = Normalizer(horizon).fit(split_scenes(scenes).train)
    groups = group_scenes(scenes, normalizer)
    for rollout in (bb.cv_rollout, ctrv_rollout):
        ade, fde = evaluate_groups(
            None, groups, h, 1, normalizer, predict=_rollout_predict(rollout, horizon)
        )
        errors = [
            np.linalg.norm(
                rollout(s.positions[:, -horizon - h : -horizon], horizon)
                - s.positions[:, -horizon:], axis=-1,
            )
            for s in scenes
        ]
        np.testing.assert_allclose(ade, np.concatenate([e.mean(-1) for e in errors]).mean(), rtol=1e-12)
        np.testing.assert_allclose(fde, np.concatenate([e[:, -1] for e in errors]).mean(), rtol=1e-12)


def test_study_reports_the_reference_rows_at_every_length(tmp_path):
    base = study_run_config(n_scenes=40, epochs=1, lengths=(2, 3, 4), horizon=3)
    result = run_length_shift_study(base, seeds=(1,))
    result.write_csv(tmp_path / "study.csv")
    with open(tmp_path / "study.csv", newline="") as handle:
        rows = {(row["model"], int(row["h_eval"])) for row in csv.DictReader(handle)}
    models = ("it", "prototype", "fln", "cv", "ctrv")
    assert rows == {(model, h) for model in models for h in (2, 3, 4)}
    (outcome,) = result.seeds
    assert outcome.ade[("ctrv", 2)] == outcome.ade[("cv", 2)]
    assert len({outcome.ade[("cv", h)] for h in (2, 3, 4)}) == 1


def test_the_study_reference_rows_equal_the_raw_rollouts_at_every_length():
    """The study's ``cv`` and ``ctrv`` rows, scored in the agents' frames,
    equal the rollouts of the raw test histories in meters (what the
    benchmark's ``cv_ade`` computes): both extrapolators commute with the
    frame's translation and rotation."""
    horizon, lengths = 3, (2, 3, 4)
    base = study_run_config(n_scenes=40, epochs=1, lengths=lengths, horizon=horizon)
    (outcome,) = run_length_shift_study(base, seeds=(1,)).seeds
    for row, rollout in (("cv", bb.cv_rollout), ("ctrv", ctrv_rollout)):
        for h in lengths:
            errors = [
                np.linalg.norm(
                    rollout(s.positions[:, -horizon - h : -horizon], horizon)
                    - s.positions[:, -horizon:], axis=-1,
                ).mean(-1)
                for s in outcome.split.test
            ]
            raw = np.concatenate(errors).mean()
            assert outcome.ade[(row, h)] == pytest.approx(raw, rel=1e-12, abs=0), (row, h)
