import json
import re

import numpy as np
import pytest

from flexilen.config import DataConfig
from flexilen.data import (
    Normalizer,
    TrajectoryScene,
    agent_table,
    generate_from_config,
    load_dataset,
    save_dataset,
    split_scenes,
)
from oracles import generate_per_scene, scale_per_scene, to_frames, transform_per_scene

LENGTHS = {"S": 2, "M": 6, "L": 8}


MIXES = {
    "cv": (1.0, 0.0, 0.0), "turn": (0.0, 1.0, 0.0), "stop": (0.0, 0.0, 1.0), "mixed": (0.6, 0.25, 0.15)
}


def _mix(name):
    """The config fields of a named motion mix."""
    return dict(zip(("motion_cv", "motion_turn", "motion_stop"), MIXES[name]))


def _scenes(seed=0, n=20, **kw):
    fields = dict(n_scenes=n, agents_min=2, agents_max=4, obs_len=8, horizon=12)
    fields.update(kw)
    return generate_from_config(DataConfig(**fields), seed)


# --------------------------------------------------------------- generation


def test_noiseless_constant_velocity_is_exactly_linear():
    scenes = _scenes(noise_sigma=0.0, **_mix("cv"))
    for scene in scenes:
        pos = scene.positions
        steps = np.diff(pos, axis=1)
        np.testing.assert_allclose(steps, np.broadcast_to(steps[:, :1, :], steps.shape), atol=1e-9)
        # one-step constant-velocity extrapolation is exact
        extrapolated = pos[:, -2, :] + steps[:, 0, :]
        np.testing.assert_allclose(extrapolated, pos[:, -1, :], atol=1e-9)


def test_generation_seeded_determinism():
    a = _scenes(seed=7)
    b = _scenes(seed=7)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.scene_id == sb.scene_id
        assert sa.positions.tobytes() == sb.positions.tobytes()
    c = _scenes(seed=8)
    assert any(sa.positions.tobytes() != sc.positions.tobytes() for sa, sc in zip(a, c))


def test_pure_turn_motion_lies_on_circle():
    scenes = _scenes(n=10, noise_sigma=0.0, **_mix("turn"))
    for scene in scenes:
        for agent in scene.positions:
            # fit the circle from the first three points, then check all
            chords = np.diff(agent, axis=0)
            lengths = np.linalg.norm(chords, axis=1)
            np.testing.assert_allclose(lengths, lengths[0], rtol=1e-9)
            center = _circumcenter(agent[0], agent[1], agent[2])
            radii = np.linalg.norm(agent - center, axis=1)
            np.testing.assert_allclose(radii, radii[0], rtol=1e-7)


def _circumcenter(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    return np.array([ux, uy])


def test_repulsion_pushes_agents_apart():
    base = dict(seed=3, n=1, agents_min=2, agents_max=2, noise_sigma=0.0, **_mix("cv"))
    plain = _scenes(**base)[0].positions
    pushed = _scenes(**base, repulsion=0.5)[0].positions
    assert not np.allclose(plain, pushed)


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("obs_len, horizon", [(8, 12), (1, 1)])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
@pytest.mark.parametrize("repulsion", [0.0, 0.5])
@pytest.mark.parametrize("agents_range", [(1, 1), (1, 6), (2, 4), (3, 3)], ids=lambda r: f"{r[0]}-{r[1]}")
def test_generation_equals_the_per_scene_simulator_byte_for_byte(
    agents_range, repulsion, noise_sigma, obs_len, horizon, mix
):
    for seed in range(3):
        cfg = DataConfig(
            n_scenes=12, agents_min=agents_range[0], agents_max=agents_range[1], obs_len=obs_len,
            horizon=horizon, noise_sigma=noise_sigma, repulsion=repulsion, **_mix(mix),
        )
        scenes = generate_from_config(cfg, seed)
        expected = generate_per_scene(
            12, agents_range, obs_len, horizon, 0.4, MIXES[mix], noise_sigma, repulsion, seed
        )
        assert [s.scene_id for s in scenes] == [scene_id for scene_id, _ in expected]
        for scene, (_, positions) in zip(scenes, expected):
            assert scene.positions.tobytes() == positions.tobytes(), (seed, scene.scene_id)


# a case names the config value at fault; the agent range and the motion mix
# are two and three fields, and the error names the field it rejects
FIELDS = {"agents_range": "agents_(min|max)", "motion_mix": "motion_(cv|turn|stop)"}


@pytest.mark.parametrize(
    "override, name",
    [
        ({"n_scenes": 0}, "n_scenes"),
        ({"obs_len": 0}, "obs_len"),
        ({"horizon": 0}, "horizon"),
        ({"agents_min": 0}, "agents_range"),
        ({"agents_min": 3, "agents_max": 2}, "agents_range"),
        ({"agents_min": 1.5}, "agents_range"),
        ({"dt": 0.0}, "dt"),
        ({"motion_cv": 0.0, "motion_turn": 0.0, "motion_stop": 0.0}, "motion_mix"),
        ({"motion_cv": 1.0, "motion_turn": -0.5, "motion_stop": 0.5}, "motion_mix"),
        ({"motion_cv": 1.0, "motion_turn": 0.5, "motion_stop": -0.5}, "motion_mix"),
        ({"noise_sigma": -1.0}, "noise_sigma"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"repulsion": -1.0}, "repulsion"),
    ],
)
def test_generation_rejects_a_bad_argument_by_name(override, name):
    with pytest.raises(ValueError, match=f"^{FIELDS.get(name, name)} "):
        _scenes(**override)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name", ["dt", "noise_sigma", "repulsion", "motion_cv", "motion_turn", "motion_stop"]
)
def test_generation_rejects_a_non_finite_float(name, value):
    # the data config alone, with no run config around it to check floats
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}"):
        generate_from_config(DataConfig(**{name: value}), 0)


@pytest.mark.parametrize("value", [2.0, 2.5, True])
@pytest.mark.parametrize("name", ["agents_min", "agents_max"])
def test_generation_rejects_an_agent_count_that_is_not_an_int(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}"):
        generate_from_config(DataConfig(**{"agents_min": 1, "agents_max": 4, name: value}), 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scene_with_a_nan_or_an_inf_raises(value):
    positions = np.zeros((2, 3, 2))
    positions[1, 2, 0] = value
    with pytest.raises(ValueError, match="^scene bad: non-finite"):
        TrajectoryScene(positions, 0.4, "bad")


def test_finite_scene_whose_sum_overflows_loads(tmp_path):
    # the sum-first finiteness check falls back to the elementwise one
    positions = np.full((2, 3, 2), 1e308)
    positions[1] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(positions.sum())
        save_dataset(tmp_path, [TrajectoryScene(positions, 0.4, "huge")], {})
        (scene,), _ = load_dataset(tmp_path)
    assert scene.positions.tobytes() == positions.tobytes()


# ------------------------------------------------------------ observed/future


def test_truncation_suffix_identity():
    scene = _scenes(n=1)[0]
    norm = Normalizer(horizon=12).fit([scene])
    observed, future, shift = norm.transform(scene.positions)
    assert observed.shape == (scene.n_agents, 8, 2)
    assert future.shape == (scene.n_agents, 12, 2)
    # the two windows tile the scene: history first, then the shared future
    np.testing.assert_array_equal(
        np.concatenate([observed, future], axis=1), to_frames(scene.positions, shift) / norm.scale
    )
    np.testing.assert_array_equal(agent_table([scene], norm).future_m, scene.positions[:, 8:, :])
    x_l, x_s = observed[:, -LENGTHS["L"]:, :], observed[:, -LENGTHS["S"]:, :]
    np.testing.assert_array_equal(x_s, x_l[:, 6:8, :])


def test_truncation_honors_short_length_set():
    scene = _scenes(n=1, obs_len=4)[0]
    observed, future, _ = Normalizer(horizon=12).fit([scene]).transform(scene.positions)
    assert observed.shape[-2] == 4
    assert future.shape[-2] == 12


# ------------------------------------------------------------- normalization


def test_normalize_round_trip_identity():
    scenes = _scenes(n=5)
    norm = Normalizer(horizon=12).fit(scenes)
    for scene in scenes:
        observed, future, shift = norm.transform(scene.positions)
        restored = norm.inverse(np.concatenate([observed, future], axis=1), shift)
        np.testing.assert_allclose(restored, scene.positions, atol=1e-12)


def test_inverse_broadcasts_the_shift_of_a_stack_like_transform():
    scenes = _scenes(n=4, agents_min=3, agents_max=3)
    norm = Normalizer(horizon=12).fit(scenes)
    stack = np.stack([scene.positions for scene in scenes])  # (B, N, steps, 2)
    observed, future, shifts = norm.transform(stack)
    assert shifts.shape == (4, 3, 4)  # one frame per agent
    restored = norm.inverse(np.concatenate([observed, future], axis=-2), shifts)
    np.testing.assert_allclose(restored, stack, atol=1e-12)
    samples = future[None].repeat(2, axis=0)  # (k, B, N, T, 2), as evaluation draws them
    samples[1] += 0.5
    assert norm.inverse(samples, shifts).tobytes() == np.stack(
        [norm.inverse(sample, shifts) for sample in samples]
    ).tobytes()


@pytest.mark.parametrize("steps", [2, 3])
def test_positions_with_no_observed_step_are_rejected(steps):
    positions = np.zeros((2, steps, 2))
    message = f"{steps} steps leave no observed step before the 3-step future"
    with pytest.raises(ValueError, match=f"^scene s1: {message}"):
        Normalizer(horizon=3).fit([TrajectoryScene(positions, 0.4, "s1")])
    norm = Normalizer(horizon=3, scale=1.0)
    with pytest.raises(ValueError, match=f"^{message}"):
        norm.transform(positions)
    with pytest.raises(ValueError, match=f"^scene s1: {message}"):
        agent_table([TrajectoryScene(positions, 0.4, "s1")], norm)
    # beside a longer scene, whose steps the table pads to
    longer = TrajectoryScene(np.zeros((2, 6, 2)), 0.4, "s0")
    with pytest.raises(ValueError, match=f"^scene s1: {message}"):
        agent_table([TrajectoryScene(positions, 0.4, "s1"), longer], norm)


def test_normalize_train_stats_reused():
    train = _scenes(n=5, seed=1)
    test = _scenes(n=5, seed=2)
    norm = Normalizer(horizon=12).fit(train)
    scale = norm.scale
    norm.transform(test[0].positions)
    assert norm.scale == scale


def test_zero_centered_scene_untranslated():
    # one agent per scene, so the scene can sit in its agent's own frame
    scene = _scenes(n=1, agents_min=1, agents_max=1)[0]
    _, _, frame = Normalizer(horizon=12, scale=1.0).transform(scene.positions)
    centered = TrajectoryScene(to_frames(scene.positions, frame), scene.dt, scene.scene_id)
    norm = Normalizer(horizon=12).fit([centered])
    observed, future, shift = norm.transform(centered.positions)
    np.testing.assert_allclose(shift, [[0.0, 0.0, 1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(
        np.concatenate([observed, future], axis=1), centered.positions / norm.scale, atol=1e-12
    )


# -------------------------------------------------------------- agent frame


def _agents(*tracks):
    """A scene (N, 4 + 2, 2) of 4 observed and 2 future steps per agent."""
    return np.array(tracks, dtype=np.float64)


def test_the_last_observed_point_maps_to_the_origin():
    positions = _scenes(n=1)[0].positions
    observed, _, frame = Normalizer(horizon=12, scale=0.7).transform(positions)
    assert (observed[:, -1, :] == 0.0).all()
    assert frame[:, :2].tobytes() == np.ascontiguousarray(positions[:, -13, :]).tobytes()


def test_the_last_moving_step_maps_onto_plus_x():
    positions = _scenes(n=1, agents_min=4, agents_max=4)[0].positions
    observed, _, frame = Normalizer(horizon=12, scale=0.7).transform(positions)
    last_step = observed[:, -1, :] - observed[:, -2, :]
    assert (last_step[:, 0] > 0).all()
    np.testing.assert_allclose(last_step[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(np.hypot(frame[:, 2], frame[:, 3]), 1.0, rtol=1e-15)


def test_an_agent_that_never_moved_keeps_the_identity():
    still = [[3.0, -2.0]] * 6
    moving = [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0], [0.0, 5.0]]
    positions = _agents(still, moving)
    norm = Normalizer(horizon=2, scale=2.0)
    observed, future, frame = norm.transform(positions)
    assert frame[0].tolist() == [3.0, -2.0, 1.0, 0.0]
    assert (np.concatenate([observed[0], future[0]]) == 0.0).all()
    assert frame[1].tolist() == [0.0, 3.0, 0.0, 1.0]  # heading +y, turned onto +x
    np.testing.assert_allclose(future[1], [[0.5, 0.0], [1.0, 0.0]], atol=1e-15)
    # a window of one observed step has no displacement: identity for all
    one_step = Normalizer(horizon=5, scale=1.0).transform(positions)[2]
    assert one_step[:, 2:].tolist() == [[1.0, 0.0], [1.0, 0.0]]


def test_an_agent_stopped_at_its_last_step_uses_its_last_move():
    # moves along (3, 4) and then stands still for its last two observed steps
    stopped = [[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0], [9.0, 9.0], [9.0, 9.0]]
    norm = Normalizer(horizon=2, scale=1.0)
    observed, _, frame = norm.transform(_agents(stopped))
    assert frame[0].tolist() == [3.0, 4.0, 0.6, 0.8]
    np.testing.assert_allclose(observed[0], [[-5.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                               atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inverse_undoes_transform(seed):
    scenes = _scenes(seed=seed, n=6)
    norm = Normalizer(horizon=12).fit(scenes)
    for scene in scenes:
        observed, future, frame = norm.transform(scene.positions)
        restored = norm.inverse(np.concatenate([observed, future], axis=-2), frame)
        error = np.abs(restored - scene.positions).max()
        assert error <= 1e-12 * np.abs(scene.positions).max()


def test_stacked_normalization_equals_the_per_scene_formula():
    # 1-4 agents and two history lengths, given in shuffled order, normalized
    # as one agent table, the shorter scenes padded at the front. Each scene
    # is magnified by its own factor of up to 1e8, so that the order in which
    # fit sums the scenes shows in the last bits of the scale: summed by
    # shape, or in id order, the same values give another scale.
    scenes = _scenes(n=24, agents_min=1, agents_max=4, obs_len=5, horizon=3) + [
        TrajectoryScene(s.positions, s.dt, "long-" + s.scene_id)
        for s in _scenes(seed=1, n=16, agents_min=1, agents_max=4, obs_len=7, horizon=3)
    ]
    r = np.random.default_rng(10)
    scenes = [
        TrajectoryScene(scenes[i].positions * 10 ** r.uniform(0, 8), 0.4, scenes[i].scene_id)
        for i in r.permutation(len(scenes))
    ]
    scale = scale_per_scene(scenes, 3)
    for other_order in (lambda s: s.positions.shape, lambda s: s.scene_id):
        assert scale_per_scene(sorted(scenes, key=other_order), 3) != scale
    norm = Normalizer(horizon=3).fit(scenes)
    assert np.float64(norm.scale).tobytes() == np.float64(scale).tobytes()
    by_id = sorted(scenes, key=lambda s: s.scene_id)
    expected = [transform_per_scene(s.positions, norm) for s in by_id]
    table = agent_table(scenes, norm)
    assert table.scene_ids == [s.scene_id for s in by_id]
    assert table.starts.tolist() == np.cumsum([0] + [s.n_agents for s in by_id]).tolist()
    keys = set(zip(np.diff(table.starts).tolist(), table.steps.tolist()))
    assert len(keys) == 8 and table.obs.shape[1] == 7  # 1-4 agents with 5 or 7 observed steps
    assert table.future_m.flags.owndata  # it does not pin the padded positions
    bounds = zip(table.starts[:-1], table.starts[1:], table.steps)
    for scene, (observed, future, shift), (start, stop, steps) in zip(by_id, expected, bounds):
        assert steps == observed.shape[1]
        rows = table.obs[start:stop]
        assert rows[:, -steps:].tobytes() == observed.tobytes()
        # the padding repeats the first point, normalized in the agent's frame
        assert (rows[:, :-steps] == rows[:, -steps:][:, :1]).all()
        assert table.future[start:stop].tobytes() == future.tobytes()
        assert table.frames[start:stop].tobytes() == shift.tobytes()
        assert table.future_m[start:stop].tobytes() == scene.positions[:, -3:].tobytes()


# -------------------------------------------------------------------- splits


def test_split_disjoint_and_deterministic():
    scenes = _scenes(n=200)
    split_a = split_scenes(scenes)
    split_b = split_scenes(scenes)
    ids = lambda part: [s.scene_id for s in part]
    assert ids(split_a.train) == ids(split_b.train)
    all_ids = set(ids(split_a.train)) | set(ids(split_a.val)) | set(ids(split_a.test))
    assert len(all_ids) == 200
    assert not (set(ids(split_a.train)) & set(ids(split_a.test)))
    assert len(split_a.train) > len(split_a.val) > 0
    assert len(split_a.test) > 0


# ----------------------------------------------------------------- export/io


def test_dataset_save_load_round_trip(tmp_path):
    scenes = _scenes(n=4)
    save_dataset(tmp_path, scenes, {"seed": 0, "dt": 0.4, "motion_mix": [0.6, 0.25, 0.15]})
    loaded, manifest = load_dataset(tmp_path)
    assert manifest["seed"] == 0
    assert len(loaded) == 4
    for a, b in zip(scenes, loaded):
        assert a.scene_id == b.scene_id
        assert a.positions.tobytes() == b.positions.tobytes()


def test_dataset_export_byte_identical(tmp_path):
    for sub in ("a", "b"):
        save_dataset(tmp_path / sub, _scenes(n=3, seed=5), {"seed": 5})
    assert (tmp_path / "a/dataset.bin").read_bytes() == (tmp_path / "b/dataset.bin").read_bytes()
    assert (tmp_path / "a/dataset.json").read_text() == (tmp_path / "b/dataset.json").read_text()


@pytest.mark.parametrize("corrupt", ["shared_offset", "extra_bytes", "missing_bytes"])
def test_load_dataset_rejects_offsets_that_do_not_tile_the_payload(tmp_path, corrupt):
    save_dataset(tmp_path, _scenes(n=3, seed=2), {"seed": 2})
    manifest_path, payload_path = tmp_path / "dataset.json", tmp_path / "dataset.bin"
    if corrupt == "shared_offset":
        # scene 1 reads scene 0's coordinates; every block still fits the payload
        manifest = json.loads(manifest_path.read_text())
        manifest["scenes"][1]["offset"] = manifest["scenes"][0]["offset"]
        manifest_path.write_text(json.dumps(manifest))
    elif corrupt == "extra_bytes":
        payload_path.write_bytes(payload_path.read_bytes() + bytes(16))
    else:
        payload_path.write_bytes(payload_path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=f"dataset {re.escape(str(tmp_path))}"):
        load_dataset(tmp_path)
