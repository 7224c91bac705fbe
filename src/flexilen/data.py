"""Scene generation, file ingestion, normalization, splits and dataset files.

Synthetic scenes mix constant-velocity, constant-turn-rate, and stop-and-go
agents with optional process noise and pairwise soft repulsion. Real data is
ingested from the plain-text "frame agent x y" convention. ``Normalizer``
owns the observed/future split: its ``transform`` cuts a scene into the
normalized observed history and the normalized future, and every model input
is a suffix ``[..., -H:, :]`` of that history.
"""
from __future__ import annotations

import hashlib
import json
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
        if not np.all(np.isfinite(self.positions)):
            raise ValueError(f"scene {self.scene_id}: non-finite positions")

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[1]


# ----------------------------------------------------------------- synthesis


def _simulate_agents(
    rng: np.random.Generator,
    n_agents: int,
    n_steps: int,
    dt: float,
    motion_mix: tuple[float, float, float],
    noise_sigma: float,
    repulsion: float,
) -> np.ndarray:
    mix = np.asarray(motion_mix, dtype=np.float64)
    mix = mix / mix.sum()
    kinds = rng.choice(3, size=n_agents, p=mix)
    pos = rng.uniform(-10.0, 10.0, size=(n_agents, 2))
    heading = rng.uniform(0.0, 2 * np.pi, size=n_agents)
    speed = rng.uniform(0.4, 1.6, size=n_agents)
    omega = np.where(kinds == 1, rng.uniform(0.2, 1.0, size=n_agents) * rng.choice([-1.0, 1.0], size=n_agents), 0.0)

    # stop-and-go phase schedule: speed multiplier per step
    gate = np.ones((n_agents, n_steps))
    for agent in range(n_agents):
        if kinds[agent] != 2:
            continue
        t = int(rng.integers(2, 6))
        stopped = True
        while t < n_steps:
            span = int(rng.integers(2, 6)) if stopped else int(rng.integers(3, 8))
            if stopped:
                gate[agent, t : t + span] = 0.0
            stopped = not stopped
            t += span

    noise = rng.normal(0.0, noise_sigma, size=(n_steps - 1, n_agents, 2)) if noise_sigma > 0 else None

    out = np.empty((n_agents, n_steps, 2))
    out[:, 0] = pos
    for step in range(1, n_steps):
        v = speed * gate[:, step]
        dtheta = omega * dt
        # exact arc increment (reduces to a straight step when omega == 0)
        radius = np.where(omega != 0.0, v / np.where(omega != 0.0, omega, 1.0), 0.0)
        seg = np.empty((n_agents, 2))
        straight = omega == 0.0
        seg[straight, 0] = (v * dt * np.cos(heading))[straight]
        seg[straight, 1] = (v * dt * np.sin(heading))[straight]
        curved = ~straight
        seg[curved, 0] = (radius * (np.sin(heading + dtheta) - np.sin(heading)))[curved]
        seg[curved, 1] = (radius * (-np.cos(heading + dtheta) + np.cos(heading)))[curved]
        if repulsion > 0 and n_agents > 1:
            delta = pos[:, None, :] - pos[None, :, :]
            dist_sq = np.sum(delta * delta, axis=-1) + 1e-6
            np.fill_diagonal(dist_sq, np.inf)
            seg = seg + repulsion * np.sum(delta / dist_sq[..., None], axis=1) * dt
        pos = pos + seg
        if noise is not None:
            pos = pos + noise[step - 1]
        heading = heading + dtheta
        out[:, step] = pos
    return out


def generate_synthetic(
    n_scenes: int,
    agents_range: tuple[int, int],
    obs_len: int,
    horizon: int,
    dt: float,
    motion_mix: tuple[float, float, float] = (0.6, 0.25, 0.15),
    noise_sigma: float = 0.02,
    repulsion: float = 0.0,
    seed: int = 0,
) -> list[TrajectoryScene]:
    """Seeded scene synthesis; identical configs produce identical datasets."""
    if n_scenes < 1 or obs_len < 1 or horizon < 1:
        raise ValueError("counts must be positive")
    lo, hi = agents_range
    rng = np.random.default_rng([seed, 3])
    n_steps = obs_len + horizon
    scenes = []
    for index in range(n_scenes):
        n_agents = int(rng.integers(lo, hi + 1))
        positions = _simulate_agents(rng, n_agents, n_steps, dt, motion_mix, noise_sigma, repulsion)
        scenes.append(TrajectoryScene(positions, dt, f"syn-{index:06d}"))
    return scenes


def generate_from_config(cfg: DataConfig, seed: int) -> list[TrajectoryScene]:
    return generate_synthetic(
        cfg.n_scenes,
        (cfg.agents_min, cfg.agents_max),
        cfg.obs_len,
        cfg.horizon,
        cfg.dt,
        cfg.motion_mix,
        cfg.noise_sigma,
        cfg.repulsion,
        seed,
    )


# ------------------------------------------------------------------ loading


def load_trajnet(path: str | Path, obs_len: int, horizon: int, dt: float = 0.4) -> list[TrajectoryScene]:
    """Read whitespace rows of ``frame agent x y`` into fixed-length scenes.

    Consecutive frames are chunked into non-overlapping windows of
    obs_len + horizon; agents present in every frame of a window form one
    scene, others are skipped.
    """
    path = Path(path)
    rows: dict[float, dict[float, tuple[float, float]]] = {}
    text = path.read_text(encoding="utf-8")
    count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) < 4:
            raise ValueError(f"{path}:{lineno}: expected 'frame agent x y', got {stripped!r}")
        try:
            frame, agent, x, y = (float(p) for p in parts[:4])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
        rows.setdefault(frame, {})[agent] = (x, y)
        count += 1
    if count == 0:
        raise ValueError(f"{path}: empty file")

    frames = sorted(rows)
    window = obs_len + horizon
    scenes = []
    for chunk_index in range(len(frames) // window):
        chunk = frames[chunk_index * window : (chunk_index + 1) * window]
        present = set(rows[chunk[0]])
        for frame in chunk[1:]:
            present &= set(rows[frame])
        if not present:
            continue
        agents = sorted(present)
        positions = np.array([[rows[frame][agent] for frame in chunk] for agent in agents])
        scenes.append(TrajectoryScene(positions, dt, f"{path.stem}-{chunk_index:04d}"))
    return scenes


# ------------------------------------------------------------- normalization


@dataclass
class Normalizer:
    """The observed/future split of a scene, plus per-scene translation to the
    centroid's last observed position and a global scale fit on the training
    split only."""

    horizon: int
    scale: float | None = None

    def _shift(self, scene: TrajectoryScene) -> np.ndarray:
        return scene.positions[:, -self.horizon - 1, :].mean(axis=0)

    def fit(self, scenes: list[TrajectoryScene]) -> "Normalizer":
        if not scenes:
            raise ValueError("the train split is empty: no scene to fit the normalizer on")
        flat = np.concatenate([(s.positions - self._shift(s)).reshape(-1) for s in scenes])
        scale = float(np.std(flat))
        self.scale = scale if scale > 0 else 1.0
        return self

    def transform(self, scene: TrajectoryScene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(observed, future, shift)``: the normalized history (N, steps - T,
        2), the normalized future (N, T, 2), and the shift ``inverse`` undoes."""
        if self.scale is None:
            raise ValueError("normalizer must be fit before transform")
        shift = self._shift(scene)
        positions = (scene.positions - shift) / self.scale
        return positions[:, : -self.horizon, :], positions[:, -self.horizon :, :], shift

    def future_m(self, scene: TrajectoryScene) -> np.ndarray:
        """The scene's future in meters, the target of ``inverse``d predictions."""
        return scene.positions[:, -self.horizon :, :]

    def inverse(self, positions: np.ndarray, shift: np.ndarray) -> np.ndarray:
        if self.scale is None:
            raise ValueError("normalizer must be fit before inverse")
        return positions * self.scale + shift


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
    chunks = []
    for scene in scenes:
        size = scene.positions.size
        manifest["scenes"].append(
            {
                "id": scene.scene_id,
                "agents": scene.n_agents,
                "steps": scene.n_steps,
                "dt": scene.dt,
                "offset": offset,
            }
        )
        chunks.append(scene.positions.astype("<f8").tobytes())
        offset += size
    tmp_json = out_dir / "dataset.json.tmp"
    tmp_bin = out_dir / "dataset.bin.tmp"
    tmp_json.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    tmp_bin.write_bytes(b"".join(chunks))
    tmp_json.replace(out_dir / "dataset.json")
    tmp_bin.replace(out_dir / "dataset.bin")


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
