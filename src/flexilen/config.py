"""Dataclass configs for the backbone, branches, data, training, and runs.

``RunConfig`` is the merged view the CLI loads from a flat key=value config
file with command-line overrides; every field is validated before any work
starts (a float must be finite) and unknown keys are rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

BRANCH_IDS = ("S", "M", "L")  # total order by observation length

STRATEGIES = ("fln", "isolated", "mixed", "finetune", "joint")
PE_KINDS = ("sinusoidal", "learnable")
ACTIVATIONS = ("relu", "gelu")
SAMPLING_MODES = ("mode-means", "stochastic")


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


@dataclass(frozen=True)
class BackboneConfig:
    d_model: int = 32
    heads: int = 2
    layers: int = 1
    dec_hidden: int = 64
    modes: int = 5
    horizon: int = 12
    pe_kind: str = "sinusoidal"
    activation: str = "relu"
    decoder_sln: bool = False  # specialize the decoder norm as well

    def validate(self) -> None:
        for name in ("d_model", "heads", "layers", "dec_hidden", "modes", "horizon"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool or a float is not a count either
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        if self.pe_kind not in PE_KINDS:
            raise ConfigError(f"pe_kind must be one of {PE_KINDS}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class BranchConfig:
    """Observation lengths for the three branches plus loss and ablation knobs."""

    h_short: int = 2
    h_medium: int = 6
    h_long: int = 8
    lambda_kl: float = 1.0
    detach_teacher: bool = True
    weight_sharing: bool = True       # WS ablation off -> per-branch backbone copies
    temporal_distillation: bool = True  # TD ablation off -> per-branch NLL instead of KL
    independent_pe: bool = True       # IPE ablation off -> one shared PE table;
                                      # acts only with pe_kind=learnable
    specialized_ln: bool = True       # SLN ablation off -> one shared affine per site

    def validate(self) -> None:
        if not (1 <= self.h_short < self.h_medium < self.h_long):
            raise ConfigError("branch lengths must satisfy 1 <= h_short < h_medium < h_long")
        if self.lambda_kl < 0:
            raise ConfigError("lambda_kl must be >= 0")

    @property
    def lengths(self) -> dict[str, int]:
        return {"S": self.h_short, "M": self.h_medium, "L": self.h_long}


@dataclass(frozen=True)
class DataConfig:
    n_scenes: int = 500
    agents_min: int = 2
    agents_max: int = 4
    obs_len: int = 8          # observed steps generated per scene (>= h_long)
    horizon: int = 12
    dt: float = 0.4
    motion_cv: float = 0.6
    motion_turn: float = 0.25
    motion_stop: float = 0.15
    noise_sigma: float = 0.02
    repulsion: float = 0.0
    train_frac: float = 0.7
    val_frac: float = 0.15

    def validate(self) -> None:
        for name in ("n_scenes", "agents_min", "agents_max", "obs_len", "horizon"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool or a float is not a count either
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.agents_max < self.agents_min:
            raise ConfigError(
                f"agents_max must be >= agents_min, got {self.agents_max} < {self.agents_min}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        for name in ("motion_cv", "motion_turn", "motion_stop", "noise_sigma", "repulsion"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if sum(self.motion_mix) <= 0:
            raise ConfigError("motion_cv + motion_turn + motion_stop must be positive")
        if not (0 < self.train_frac < 1 and 0 <= self.val_frac < 1):
            raise ConfigError("fractions must lie in (0, 1)")
        if self.train_frac + self.val_frac >= 1:
            raise ConfigError("train_frac + val_frac must leave room for a test split")

    @property
    def motion_mix(self) -> tuple[float, float, float]:
        return (self.motion_cv, self.motion_turn, self.motion_stop)


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "fln"
    epochs: int = 20
    batch_size: int = 32
    lr: float = 3e-3
    rho_short: float = 0.5
    rho_medium: float = 0.5
    rho_long: float = 0.5
    isolated_length: int = 0         # required for strategy=isolated (0 = unset)
    finetune_target: int = 0         # required for strategy=finetune (0 = unset)
    finetune_patience: int = 5
    finetune_max_epochs: int = 50

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        for name in ("rho_short", "rho_medium", "rho_long"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.strategy == "mixed" and self.rho_short + self.rho_medium + self.rho_long <= 0:
            raise ConfigError("mixed strategy needs a positive probability mass")
        if self.finetune_patience < 1 or self.finetune_max_epochs < 1:
            raise ConfigError("finetune patience and max epochs must be >= 1")


@dataclass(frozen=True)
class EvalConfig:
    samples: int = 5
    sampling: str = "mode-means"

    def validate(self) -> None:
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.sampling not in SAMPLING_MODES:
            raise ConfigError(f"sampling must be one of {SAMPLING_MODES}")


@dataclass(frozen=True)
class RunConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    branches: BranchConfig = field(default_factory=BranchConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0

    def validate(self) -> None:
        for key, value in run_config_to_flat(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        self.backbone.validate()
        self.branches.validate()
        self.data.validate()
        self.train.validate()
        self.eval.validate()
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.data.obs_len < self.branches.h_long:
            raise ConfigError("data obs_len must cover h_long")
        if self.backbone.horizon != self.data.horizon:
            raise ConfigError("backbone horizon and data horizon must agree")
        if self.train.strategy == "isolated" and self.train.isolated_length < 1:
            raise ConfigError("strategy=isolated requires isolated_length (--length)")
        if self.train.strategy == "finetune":
            if self.train.finetune_target < 1:
                raise ConfigError("strategy=finetune requires finetune_target")
            if self.train.finetune_target > self.branches.h_long:
                raise ConfigError("finetune_target cannot exceed h_long")
        if self.eval.sampling == "mode-means" and self.eval.samples > self.backbone.modes:
            raise ConfigError(
                f"sampling=mode-means draws one sample per mode: samples={self.eval.samples}"
                f" exceeds modes={self.backbone.modes}"
            )


_SECTIONS = (
    ("backbone", BackboneConfig),
    ("branches", BranchConfig),
    ("data", DataConfig),
    ("train", TrainConfig),
    ("eval", EvalConfig),
)


def _flat_field_map() -> dict[str, tuple[str | None, str, type]]:
    """Flat config key -> (section, field name, type). Keys are globally unique."""
    mapping: dict[str, tuple[str | None, str, type]] = {}
    seen: dict[str, str] = {}
    for section, cls in _SECTIONS:
        for f in fields(cls):
            if f.name in seen and f.name != "horizon":
                raise AssertionError(f"duplicate config key {f.name}")
            seen[f.name] = section
            if f.name == "horizon":
                continue  # handled as one shared key below
            mapping[f.name] = (section, f.name, type(f.default))
    mapping["horizon"] = (None, "horizon", int)  # applied to backbone and data
    mapping["seed"] = (None, "seed", int)
    return mapping


FLAT_KEYS = _flat_field_map()


def _coerce(key: str, raw: str, target: type):
    raw = raw.strip()
    if target is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if target is int:
            return int(raw)
        if target is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return raw


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse flat ``key = value`` lines into typed values; unknown keys error."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in FLAT_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw, FLAT_KEYS[key][2])
    return values


def build_run_config(values: dict[str, object]) -> RunConfig:
    """Assemble and validate a RunConfig from flat key values."""
    per_section: dict[str, dict[str, object]] = {s: {} for s, _ in _SECTIONS}
    top: dict[str, object] = {}
    for key, value in values.items():
        if key not in FLAT_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, _ = FLAT_KEYS[key]
        if key == "horizon":
            per_section["backbone"]["horizon"] = value
            per_section["data"]["horizon"] = value
        elif section is None:
            top[name] = value
        else:
            per_section[section][name] = value
    cfg = RunConfig(**{s: cls(**per_section[s]) for s, cls in _SECTIONS}, **top)
    cfg.validate()
    return cfg


def load_run_config(
    path: str | Path | None, overrides: dict | None = None, base: dict | None = None
) -> RunConfig:
    """Flat values from ``base`` (the defaults when None), then the config
    file at ``path``, then ``overrides``; each replaces the keys it names."""
    values: dict[str, object] = dict(base or {})
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        values.update(parse_config_text(text, source=str(path)))
    if overrides:
        for key, value in overrides.items():
            if key not in FLAT_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, str):
                value = _coerce(key, value, FLAT_KEYS[key][2])
            values[key] = value
    return build_run_config(values)


def run_config_to_flat(cfg: RunConfig) -> dict[str, object]:
    """Inverse of build_run_config, for checkpoints and manifests."""
    flat: dict[str, object] = {}
    for section, _ in _SECTIONS:
        sub = getattr(cfg, section)
        for f in fields(sub):
            if f.name == "horizon" and section == "data":
                continue
            flat[f.name] = getattr(sub, f.name)
    flat["seed"] = cfg.seed
    return flat

