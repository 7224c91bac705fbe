"""Versioned checkpoint files: JSON manifest plus little-endian float64 payload.

A checkpoint is a pair ``<prefix>.json`` / ``<prefix>.bin``. The manifest
records the format version, a run-config snapshot, the model (backbone config
and branch lengths), a named parameter manifest (name, shape, element
offset), the training-epoch marker, and the ``scale`` of the normalizer the
model was trained with (``train`` always writes it; ``load_checkpoint``
rebuilds the normalizer from it, which ``eval``, ``sweep`` and ``probe ln``
score with). The parameter names are the model's layout (see
``FlnParams``); a loaded model must hold every tensor its branches read.
Offsets tile the payload exactly and round-trips are bit-identical; writes
are atomic (write-then-rename).
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .backbone import FlnParams
from .config import BackboneConfig
from .data import Normalizer, read_payload, write_payload

# 2: models trained in each agent's own frame (``data.Normalizer``); a
# version-1 model was trained in the scene-centroid frame, and its scale
# was fit there, so it is refused rather than scored in the wrong frame
CHECKPOINT_FORMAT_VERSION = 2
_BACKBONE_KEYS = frozenset(f.name for f in dataclasses.fields(BackboneConfig))


def _size(shape: list[int]) -> int:
    return int(np.prod(shape, dtype=np.int64)) if shape else 1


def save_checkpoint(
    prefix: str | Path,
    params: FlnParams,
    run_config: dict | None = None,
    epoch: int = 0,
    scale: float | None = None,
) -> None:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    entries, offset = [], 0
    for name, tensor in params.tensors.items():
        entries.append({"name": name, "shape": list(tensor.data.shape), "offset": offset})
        offset += tensor.data.size
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": epoch,
        "run_config": run_config or {},
        "model": {
            "backbone": dataclasses.asdict(params.cfg),
            "lengths": params.lengths,
        },
        "parameters": entries,
        "scale": scale,
    }
    write_payload(prefix, manifest, [tensor.data for tensor in params.tensors.values()])


def load_checkpoint(
    prefix: str | Path,
) -> tuple[FlnParams, dict, Normalizer | None]:
    """Rebuild the parameters from disk; returns them, the manifest, and the
    normalizer the model was trained with, or None when the manifest
    records no valid ``scale`` (a positive finite float)."""
    prefix = Path(prefix)
    json_path = Path(str(prefix) + ".json")
    bin_path = Path(str(prefix) + ".bin")
    if not json_path.exists() or not bin_path.exists():
        raise FileNotFoundError(f"checkpoint {prefix} not found")
    manifest = json.loads(json_path.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"checkpoint {prefix}: unsupported version {version}")
    try:
        entries = list(manifest["parameters"])
        blocks = [(e["name"], e["offset"], _size(e["shape"])) for e in entries]
        model = manifest["model"]
        unknown = sorted(set(model["backbone"]) - _BACKBONE_KEYS)
        if unknown:
            raise ValueError(f"unknown keys in model.backbone: {', '.join(map(repr, unknown))}")
        backbone = BackboneConfig(**model["backbone"])
        backbone.validate()
        params = FlnParams(backbone, dict(model["lengths"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint {prefix}: malformed manifest: {exc!r}") from exc
    except ValueError as exc:
        raise ValueError(f"checkpoint {prefix}: malformed manifest: {exc}") from exc
    payload = read_payload(bin_path, blocks, f"checkpoint {prefix}")

    for entry in entries:
        block = payload[entry["offset"] : entry["offset"] + _size(entry["shape"])]
        params.tensors[entry["name"]] = Tensor(
            block.reshape(entry["shape"]).astype(np.float64), requires_grad=True
        )
    missing = params.missing_tensor()
    if missing:
        raise ValueError(f"checkpoint {prefix}: malformed manifest: {missing}")

    scale = manifest.get("scale")
    valid = type(scale) is float and 0 < scale < math.inf
    return params, manifest, Normalizer(backbone.horizon, scale) if valid else None
