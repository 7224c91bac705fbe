"""Scene generation, normalization, splits and dataset files.

Synthetic scenes mix constant-velocity, constant-turn-rate, and stop-and-go
agents with optional process noise and pairwise soft repulsion. The one
generator, ``generate_from_config``, validates its ``DataConfig`` and then
draws every scene's parameters from one seeded stream in scene-id order, so
a scene's positions depend only on the seed and its index, then simulates
all scenes of one agent count together, step by step: the same elementwise
recursion in the same order as one scene alone, so the bytes are the same
as if each scene were simulated by itself. ``Normalizer`` owns the
observed/future split: its ``transform`` cuts a scene's agents, or every
agent of a scene set, into the normalized observed history and the
normalized future, each agent in its own frame (origin at its last observed
point, +x along its last observed move). ``agent_table`` is the one builder
of the ``AgentTable`` that training, validation, evaluation and the study
all read: every agent of a scene set in scene-id order, normalized in one
call, with each scene's first row. ``windows`` is the one length check:
every model input is a suffix ``[:, -H:, :]`` of the table's histories.
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

NO_OBSERVED_STEP = "{steps} steps leave no observed step before the {horizon}-step future"


def _pad(scenes: list[TrajectoryScene], horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(positions, starts, steps)`` of every agent of ``scenes``, in the
    order given: positions (A, S, 2) with S the longest scene's steps, each
    scene's first agent row, then A (n_scenes + 1), and each scene's own
    steps (n_scenes). A shorter scene is padded at the front with copies of
    its first point, so its padded moves are zero and its agents keep their
    frames. The first scene, in the order given, with no step before the
    ``horizon``-step future is rejected."""
    starts = np.cumsum([0] + [scene.n_agents for scene in scenes])
    steps = np.array([scene.n_steps for scene in scenes], dtype=np.int64)
    longest = int(steps.max(initial=horizon + 1))
    positions = np.empty((starts[-1], longest, 2))
    for scene, start, stop in zip(scenes, starts[:-1], starts[1:]):
        if scene.n_steps <= horizon:
            message = NO_OBSERVED_STEP.format(steps=scene.n_steps, horizon=horizon)
            raise ValueError(f"scene {scene.scene_id}: {message}")
        positions[start:stop] = scene.positions[:, :1]
        positions[start:stop, longest - scene.n_steps :] = scene.positions
    return positions, starts, steps


@dataclass
class Normalizer:
    """The observed/future split of a scene, plus each agent's own frame and a
    global scale fit on the training split only.

    An agent's frame has its origin at the agent's last observed point and
    its +x axis along the agent's last non-zero observed displacement; an
    agent that never moved keeps the world axes. This is the agent-centric
    local frame of HiVT (Zhou et al., CVPR 2022). It depends only on
    observed points, so every branch and every future step share it.
    ``transform`` and the frame work on agents of any leading shape,
    (..., steps, 2): one scene's (N, steps, 2), or every agent of a scene
    set (A, steps, 2), normalized in one call."""

    horizon: int
    scale: float | None = None

    def _shift(self, positions: np.ndarray) -> np.ndarray:
        """(..., 4): each agent's last observed point, then the cos and sin
        of its last non-zero observed displacement's heading (1 and 0 when
        it never moved, or has a single observed step). Positions with no
        step before the future are rejected."""
        steps = positions.shape[-2]
        if steps <= self.horizon:
            raise ValueError(NO_OBSERVED_STEP.format(steps=steps, horizon=self.horizon))
        observed = positions[..., : steps - self.horizon, :]
        frame = np.zeros(positions.shape[:-2] + (4,))
        frame[..., :2] = observed[..., -1, :]
        frame[..., 2] = 1.0
        moves = observed[..., 1:, :] - observed[..., :-1, :]
        if not moves.shape[-2]:  # a single observed step: no move to align with
            return frame
        moved = (moves != 0.0).any(axis=-1)
        # 1 + the index of each agent's latest move, 0 for an agent that never moved
        latest = np.max(moved * np.arange(1, moves.shape[-2] + 1), axis=-1)
        move = np.take_along_axis(moves, np.maximum(latest - 1, 0)[..., None, None], axis=-2)
        move = move[..., 0, :]
        length = np.hypot(move[..., 0], move[..., 1])
        np.divide(move, length[..., None], out=frame[..., 2:], where=(latest > 0)[..., None])
        return frame

    @staticmethod
    def _into(positions: np.ndarray, frame: np.ndarray) -> np.ndarray:
        """Positions (..., steps, 2) in the agents' frames (..., 4),
        unscaled: translated to each origin, then rotated onto its axes."""
        x = positions[..., 0] - frame[..., None, 0]
        y = positions[..., 1] - frame[..., None, 1]
        cos, sin = frame[..., None, 2], frame[..., None, 3]
        out = np.empty(positions.shape)  # filled in place, so fit holds few temporaries
        np.multiply(cos, x, out=out[..., 0])
        out[..., 0] += sin * y
        np.multiply(cos, y, out=out[..., 1])
        out[..., 1] -= sin * x
        return out

    def fit(self, scenes: list[TrajectoryScene]) -> "Normalizer":
        """The scale: the std of every scene's positions in its agents'
        frames. Every agent is moved in one call (``_pad``), and the std
        runs over the real points only, scene by scene in the order given,
        each scene's (N, steps, 2) in its own order."""
        if not scenes:
            raise ValueError("the train split is empty: no scene to fit the normalizer on")
        positions, starts, steps = _pad(scenes, self.horizon)
        first_real = positions.shape[1] - np.repeat(steps, np.diff(starts))
        real = np.arange(positions.shape[1]) >= first_real[:, None]  # (A, S), False on padding
        # the framed points replace the raw ones, so one full copy is alive at a time
        positions = self._into(positions, self._shift(positions))
        scale = float(np.std((positions if real.all() else positions[real]).reshape(-1)))
        self.scale = scale if scale > 0 else 1.0
        return self

    def transform(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(observed, future, frame)`` of positions (..., steps, 2): the
        normalized history (..., steps - T, 2), the normalized future
        (..., T, 2), both views of one array, and the agents' frames
        (..., 4) ``inverse`` undoes."""
        if self.scale is None:
            raise ValueError("normalizer must be fit before transform")
        frame = self._shift(positions)
        normalized = self._into(positions, frame)
        normalized /= self.scale  # in place: one full array alive, not two
        return normalized[..., : -self.horizon, :], normalized[..., -self.horizon :, :], frame

    def inverse(self, positions: np.ndarray, frame: np.ndarray) -> np.ndarray:
        """Meters from normalized positions (..., T, 2) and the frames
        (..., 4) ``transform`` returned: scaled, rotated back, then
        translated, broadcast over any further leading axis (such as
        evaluation's samples) and over steps."""
        if self.scale is None:
            raise ValueError("normalizer must be fit before inverse")
        x, y = positions[..., 0] * self.scale, positions[..., 1] * self.scale
        cos, sin = frame[..., None, 2], frame[..., None, 3]
        return np.stack(
            [cos * x - sin * y + frame[..., None, 0], sin * x + cos * y + frame[..., None, 1]],
            axis=-1,
        )


@dataclass
class AgentTable:
    """Every agent of a scene set in scene-id order, a scene's agents in
    consecutive rows, normalized in one call. A shorter scene's histories
    are padded at the front (``_pad``); its real rows are the last ``steps``
    of ``obs``, with the bits of the scene normalized alone."""

    obs: np.ndarray       # (A, S, 2) normalized histories
    future: np.ndarray    # (A, T, 2) normalized futures
    frames: np.ndarray    # (A, 4) the agents' frames ``Normalizer.inverse`` undoes
    future_m: np.ndarray  # (A, T, 2) futures in meters, a copy
    starts: np.ndarray    # (n_scenes + 1,) each scene's first agent row, then A
    steps: np.ndarray     # (n_scenes,) each scene's observed steps
    scene_ids: list[str]


def agent_table(scenes: list[TrajectoryScene], normalizer: Normalizer) -> AgentTable:
    """The ``AgentTable`` of ``scenes``, sorted by id and normalized in one
    ``Normalizer.transform``."""
    ordered = sorted(scenes, key=lambda s: s.scene_id)
    positions, starts, steps = _pad(ordered, normalizer.horizon)
    observed, future, frames = normalizer.transform(positions)
    future_m = positions[:, -normalizer.horizon :, :].copy()
    ids = [scene.scene_id for scene in ordered]
    return AgentTable(observed, future, frames, future_m, starts, steps - normalizer.horizon, ids)


def windows(table: AgentTable, h: int) -> np.ndarray:
    """Every agent's last ``h`` normalized observed steps, (A, h, 2); the
    first scene by id with fewer observed steps is rejected."""
    if h < 1:
        raise ValueError(f"observation length must be >= 1, got {h}")
    for scene_id, steps in zip(table.scene_ids, table.steps):
        if steps < h:
            raise ValueError(f"scene {scene_id} has only {steps} observed steps (< {h})")
    return table.obs[:, -h:, :]


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
