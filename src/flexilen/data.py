"""Scene generation, normalization, splits and dataset files.

Synthetic scenes mix constant-velocity, constant-turn-rate, and stop-and-go
agents with optional process noise and pairwise soft repulsion. The one
generator, ``generate_from_config``, validates its ``DataConfig`` and then
draws every scene's parameters from one seeded stream in scene-id order, so
a scene's positions depend only on the seed and its index, then simulates
all scenes of one agent count together, step by step: the same elementwise
recursion in the same order as one scene alone, so the bytes are the same
as if each scene were simulated by itself. ``Normalizer`` owns the
observed/future split: its ``transform`` cuts a scene, or a stack of scenes
with equal agent count and length, into the normalized observed history and
the normalized future. ``group_scenes`` is the one builder of those stacks,
``SceneGroup``s that training, validation, evaluation and the study all
read, and ``windows`` the one length check: every model input is a suffix
``[..., -H:, :]`` of a group's history.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import DataConfig


@dataclass
class TrajectoryScene:
    """One multi-agent episode: positions (N, steps, 2) in meters."""

    positions: np.ndarray
    dt: float
    scene_id: str

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[-1] != 2:
            raise ValueError(f"positions must be (N, steps, 2), got {self.positions.shape}")
        if self.positions.shape[0] < 1:
            raise ValueError("scene needs at least one agent")
        # the sum is finite unless a value is NaN or Inf, or large finite
        # values overflow it; only then is the elementwise test needed
        if not math.isfinite(np.add.reduce(self.positions, axis=None)) and not np.isfinite(
            self.positions
        ).all():
            raise ValueError(f"scene {self.scene_id}: non-finite positions")

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[1]


# ----------------------------------------------------------------- synthesis


def _draw_scenes(rng, cfg: DataConfig, mix: np.ndarray):
    """Every scene's agent count and parameters, drawn from ``rng`` scene by
    scene in the generator's fixed order: agent count, kinds, start
    positions, heading, speed, omega's magnitude and sign, the stop-and-go
    spans, then the noise. Each parameter array is padded to the largest
    agent count on axis 1; scene i's agents are its first ``counts[i]`` rows."""
    n_scenes, lo, hi = cfg.n_scenes, cfg.agents_min, cfg.agents_max
    n_steps, noise_sigma = cfg.obs_len + cfg.horizon, cfg.noise_sigma
    counts = np.empty(n_scenes, dtype=np.int64)
    pos = np.zeros((n_scenes, hi, 2))
    heading, speed, omega = np.zeros((3, n_scenes, hi))
    moving = np.ones((n_scenes, hi, n_steps), dtype=bool)  # stop-and-go: False while stopped
    noise = np.zeros((n_scenes, hi, n_steps - 1, 2)) if noise_sigma > 0 else None
    for index in range(n_scenes):
        n_agents = int(rng.integers(lo, hi + 1))
        counts[index] = n_agents
        kinds = rng.choice(3, size=n_agents, p=mix)
        pos[index, :n_agents] = rng.uniform(-10.0, 10.0, size=(n_agents, 2))
        heading[index, :n_agents] = rng.uniform(0.0, 2 * np.pi, size=n_agents)
        speed[index, :n_agents] = rng.uniform(0.4, 1.6, size=n_agents)
        turn = rng.uniform(0.2, 1.0, size=n_agents) * rng.choice([-1.0, 1.0], size=n_agents)
        omega[index, :n_agents] = np.where(kinds == 1, turn, 0.0)
        for agent in range(n_agents):
            if kinds[agent] != 2:
                continue
            t = int(rng.integers(2, 6))
            stopped = True
            while t < n_steps:
                span = int(rng.integers(2, 6)) if stopped else int(rng.integers(3, 8))
                if stopped:
                    moving[index, agent, t : t + span] = False
                stopped = not stopped
                t += span
        if noise is not None:
            step_noise = rng.normal(0.0, noise_sigma, size=(n_steps - 1, n_agents, 2))
            noise[index, :n_agents] = step_noise.transpose(1, 0, 2)
    return counts, pos, heading, speed, omega, moving, noise


def _simulate(pos, heading, speed, omega, moving, noise, dt: float, repulsion: float) -> np.ndarray:
    """Positions (S, N, steps, 2) of S scenes with N agents each, from their
    stacked parameters (scene axis 0, agent axis 1).

    The same elementwise recursion as one scene at a time, in the same
    operand order, so every scene's bits match its own unstacked run."""
    n_scenes, n_agents, n_steps = moving.shape
    out = np.empty((n_scenes, n_agents, n_steps, 2))
    out[:, :, 0] = pos
    straight = omega == 0.0
    curved = ~straight
    dtheta = omega * dt
    diagonal = np.arange(n_agents)
    for step in range(1, n_steps):
        v = speed * moving[:, :, step]  # speed * 1.0 or speed * 0.0, as a float gate gives
        # exact arc increment (reduces to a straight step when omega == 0)
        radius = np.where(curved, v / np.where(curved, omega, 1.0), 0.0)
        seg = np.empty((n_scenes, n_agents, 2))
        seg[..., 0] = np.where(
            straight, v * dt * np.cos(heading), radius * (np.sin(heading + dtheta) - np.sin(heading))
        )
        seg[..., 1] = np.where(
            straight, v * dt * np.sin(heading), radius * (-np.cos(heading + dtheta) + np.cos(heading))
        )
        if repulsion > 0 and n_agents > 1:
            delta = pos[:, :, None, :] - pos[:, None, :, :]
            dist_sq = np.sum(delta * delta, axis=-1) + 1e-6
            dist_sq[:, diagonal, diagonal] = np.inf
            seg = seg + repulsion * np.sum(delta / dist_sq[..., None], axis=2) * dt
        pos = pos + seg
        if noise is not None:
            pos = pos + noise[:, :, step - 1]
        heading = heading + dtheta
        out[:, :, step] = pos
    return out


def generate_from_config(cfg: DataConfig, seed: int) -> list[TrajectoryScene]:
    """Seeded scene synthesis; identical configs produce identical datasets.
    ``cfg`` is validated first.

    Two phases. The draw phase reads every scene's parameters, in scene-id
    order, from one ``default_rng([seed, 3])`` stream (``_draw_scenes``).
    The simulate phase stacks the scenes of each agent count and steps them
    together. A scene's positions therefore depend only on the seed and its
    index, never on which other scenes share its agent count. The recursion
    stays one step at a time, not a ``cumsum`` of increments: repulsion reads
    the positions of the step before, and summing in another order would
    change the last bits of every position.
    """
    cfg.validate()
    mix = np.asarray(cfg.motion_mix, dtype=np.float64)
    mix = mix / mix.sum()
    counts, *params = _draw_scenes(np.random.default_rng([seed, 3]), cfg, mix)
    positions: list[np.ndarray | None] = [None] * cfg.n_scenes
    for n_agents in np.unique(counts):
        members = np.flatnonzero(counts == n_agents)
        group = [None if p is None else p[members, :n_agents] for p in params]
        for index, scene_positions in zip(members, _simulate(*group, cfg.dt, cfg.repulsion)):
            positions[index] = scene_positions
    return [TrajectoryScene(p, cfg.dt, f"syn-{index:06d}") for index, p in enumerate(positions)]


# ------------------------------------------------------------- normalization


def _stack_by_shape(scenes: list[TrajectoryScene]) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(index, positions)`` per group of ``scenes`` with equal agent count
    and steps, groups in sorted (agents, steps) order: the members' indices
    into ``scenes``, increasing, and their positions stacked (B, N, steps,
    2). One stack is what one normalization, or one mask-free attention
    forward, covers."""
    members: dict[tuple[int, int], list[int]] = {}
    for i, scene in enumerate(scenes):
        members.setdefault(scene.positions.shape[:2], []).append(i)
    return [
        (np.array(members[key]), np.stack([scenes[i].positions for i in members[key]]))
        for key in sorted(members)
    ]


@dataclass
class Normalizer:
    """The observed/future split of a scene, plus per-scene translation to the
    centroid's last observed position and a global scale fit on the training
    split only.

    ``transform`` and the shift work on a positions array of any leading
    shape, (..., N, steps, 2): one scene, or a stack of scenes with equal
    agent count and length, normalized in one call."""

    horizon: int
    scale: float | None = None

    def _shift(self, positions: np.ndarray, scene_id: str | None = None) -> np.ndarray:
        """(..., 2): the agents' mean position at the last observed step.
        Positions with no step before the future are rejected, naming
        ``scene_id`` when it is given."""
        steps = positions.shape[-2]
        if steps <= self.horizon:
            where = "" if scene_id is None else f"scene {scene_id}: "
            raise ValueError(
                f"{where}{steps} steps leave no observed step before the {self.horizon}-step future"
            )
        return positions[..., -self.horizon - 1, :].mean(axis=-2)

    def fit(self, scenes: list[TrajectoryScene]) -> "Normalizer":
        """The scale: the std of every scene's shifted positions. Each stack
        of equal-shaped scenes is shifted in one call, and each scene's
        values are written at its own offset in the flat sample, so the sum
        runs over the scenes in the order given."""
        if not scenes:
            raise ValueError("the train split is empty: no scene to fit the normalizer on")
        offsets = np.cumsum([0] + [scene.positions.size for scene in scenes])
        flat = np.empty(offsets[-1])
        for index, positions in _stack_by_shape(scenes):
            shift = self._shift(positions, scenes[index[0]].scene_id)
            shifted = positions - shift[..., None, None, :]
            at = offsets[index][:, None] + np.arange(shifted[0].size)
            flat[at.reshape(-1)] = shifted.reshape(-1)
        scale = float(np.std(flat))
        self.scale = scale if scale > 0 else 1.0
        return self

    def transform(
        self, positions: np.ndarray, scene_id: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(observed, future, shift)`` of positions (..., N, steps, 2): the
        normalized history (..., N, steps - T, 2), the normalized future
        (..., N, T, 2), both views of one array, and the shift (..., 2)
        ``inverse`` undoes. ``scene_id`` names the scene, or a stack's first
        scene, in the error for positions too short to cut."""
        if self.scale is None:
            raise ValueError("normalizer must be fit before transform")
        shift = self._shift(positions, scene_id)
        normalized = (positions - shift[..., None, None, :]) / self.scale
        return normalized[..., : -self.horizon, :], normalized[..., -self.horizon :, :], shift

    def inverse(self, positions: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Meters from normalized positions (..., N, T, 2) and the shift
        (..., 2) ``transform`` returned, broadcast over agents and steps as
        ``transform`` subtracts it."""
        if self.scale is None:
            raise ValueError("normalizer must be fit before inverse")
        return positions * self.scale + shift[..., None, None, :]


@dataclass
class SceneGroup:
    """Scenes with equal agent count and length, stacked and normalized in
    one call.

    ``index`` is each scene's position in scene-id order over the grouped
    set, increasing within a group; ``scene_ids`` are their ids.
    """

    obs: np.ndarray       # (B, N, steps, 2) normalized histories
    future: np.ndarray    # (B, N, T, 2) normalized futures
    shifts: np.ndarray    # (B, 2) the shifts ``Normalizer.inverse`` undoes
    future_m: np.ndarray  # (B, N, T, 2) futures in meters, a copy
    index: np.ndarray     # (B,)
    scene_ids: list[str]


def group_scenes(scenes: list[TrajectoryScene], normalizer: Normalizer) -> list[SceneGroup]:
    """Stack the scenes of each observed shape and normalize each stack in
    one call, groups ordered by (agents, steps), rows in scene-id order."""
    ordered = sorted(scenes, key=lambda s: s.scene_id)
    groups = []
    for index, positions in _stack_by_shape(ordered):
        observed, future, shifts = normalizer.transform(positions, ordered[index[0]].scene_id)
        groups.append(SceneGroup(
            observed, future, shifts, positions[..., -normalizer.horizon :, :].copy(), index,
            [ordered[i].scene_id for i in index],
        ))
    return groups


def windows(groups: list[SceneGroup], h: int) -> list[np.ndarray]:
    """Each group's last ``h`` normalized observed steps; the first scene by
    id with fewer steps is rejected."""
    if h < 1:
        raise ValueError(f"observation length must be >= 1, got {h}")
    short = [group for group in groups if group.obs.shape[2] < h]
    if short:
        group = min(short, key=lambda g: g.index[0])
        raise ValueError(
            f"scene {group.scene_ids[0]} has only {group.obs.shape[2]} observed steps (< {h})"
        )
    return [group.obs[..., -h:, :] for group in groups]


# -------------------------------------------------------------------- splits


@dataclass
class DatasetSplit:
    train: list[TrajectoryScene] = field(default_factory=list)
    val: list[TrajectoryScene] = field(default_factory=list)
    test: list[TrajectoryScene] = field(default_factory=list)


def _id_bucket(scene_id: str) -> float:
    digest = hashlib.md5(scene_id.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) / 0xFFFFFFFF


def split_scenes(
    scenes: list[TrajectoryScene], train_frac: float = 0.7, val_frac: float = 0.15
) -> DatasetSplit:
    """Deterministic, leakage-free split by scene-id hash."""
    split = DatasetSplit()
    for scene in scenes:
        bucket = _id_bucket(scene.scene_id)
        if bucket < train_frac:
            split.train.append(scene)
        elif bucket < train_frac + val_frac:
            split.val.append(scene)
        else:
            split.test.append(scene)
    return split


# ---------------------------------------------------------------- export/io


DATASET_FORMAT_VERSION = 1


def save_dataset(out_dir: str | Path, scenes: list[TrajectoryScene], meta: dict) -> None:
    """JSON manifest plus a flat little-endian float64 coordinate payload."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        **meta,
        "scenes": [],
    }
    offset = 0
    for scene in scenes:
        manifest["scenes"].append(
            {
                "id": scene.scene_id,
                "agents": scene.n_agents,
                "steps": scene.n_steps,
                "dt": scene.dt,
                "offset": offset,
            }
        )
        offset += scene.positions.size
    write_payload(out_dir / "dataset", manifest, [scene.positions for scene in scenes])


def write_payload(prefix: Path, manifest: dict, arrays: list[np.ndarray]) -> None:
    """``<prefix>.json``, the manifest, and ``<prefix>.bin``, the arrays as
    consecutive little-endian float64 blocks. Both are written to ``.tmp``
    files first and then renamed, so a reader never sees half a file."""
    tmp_json = Path(f"{prefix}.json.tmp")
    tmp_bin = Path(f"{prefix}.bin.tmp")
    tmp_json.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    tmp_bin.write_bytes(b"".join(arr.astype("<f8").tobytes() for arr in arrays))
    tmp_json.replace(f"{prefix}.json")
    tmp_bin.replace(f"{prefix}.bin")


def read_payload(path: Path, blocks: list[tuple[str, int, int]], source: str) -> np.ndarray:
    """The float64 payload at ``path``, once the manifest's ``(name, offset,
    size)`` blocks are checked to tile it: end to end from 0, covering it all."""
    raw = path.read_bytes()
    expected = 0
    for name, offset, size in blocks:
        if offset != expected:
            raise ValueError(f"{source}: manifest offsets do not tile the payload at {name}")
        expected += size
    if len(raw) != 8 * expected:
        raise ValueError(f"{source}: payload has {len(raw)} bytes, its manifest {8 * expected}")
    return np.frombuffer(raw, dtype="<f8")


def load_dataset(in_dir: str | Path) -> tuple[list[TrajectoryScene], dict]:
    in_dir = Path(in_dir)
    manifest = json.loads((in_dir / "dataset.json").read_text(encoding="utf-8"))
    if manifest.get("format_version") != DATASET_FORMAT_VERSION:
        raise ValueError(f"dataset {in_dir}: unsupported version {manifest.get('format_version')}")
    try:
        entries = [(e["id"], e["offset"], e["agents"], e["steps"], e["dt"]) for e in manifest["scenes"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"dataset {in_dir}: malformed manifest: {exc!r}") from exc
    for scene_id, *counts, _ in entries:
        if any(type(count) is not int for count in counts):  # a bool is not a count either
            raise ValueError(
                f"dataset {in_dir}: malformed manifest: scene {scene_id!r} needs integer"
                f" offset, agents and steps, got {counts}"
            )
    blocks = [(scene_id, offset, agents * steps * 2) for scene_id, offset, agents, steps, _ in entries]
    payload = read_payload(in_dir / "dataset.bin", blocks, f"dataset {in_dir}")
    scenes = []
    for scene_id, offset, agents, steps, dt in entries:
        positions = payload[offset : offset + agents * steps * 2].reshape(agents, steps, 2)
        scenes.append(TrajectoryScene(positions.astype(np.float64), dt, scene_id))
    return scenes, manifest
