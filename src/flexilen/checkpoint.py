"""Versioned checkpoint files: JSON manifest plus little-endian float64 payload.

A checkpoint is a pair ``<prefix>.json`` / ``<prefix>.bin``. The manifest
records the format version, a run-config snapshot, the model (backbone config
and branch lengths), a named parameter manifest (name, shape, element
offset), an optional optimizer section, the training-epoch marker, and the
``scale`` of the normalizer the model was trained with (``train`` always
writes it; ``eval``, ``sweep`` and ``probe ln`` read it). The
parameter names are the model's layout (see ``FlnParams``); a loaded model
must hold every tensor its branches read. Offsets tile the payload exactly and
round-trips are bit-identical; writes are atomic (write-then-rename).
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .backbone import FlnParams
from .config import BackboneConfig
from .data import read_payload, write_payload
from .training import AdamState

CHECKPOINT_FORMAT_VERSION = 1


def _size(shape: list[int]) -> int:
    return int(np.prod(shape, dtype=np.int64)) if shape else 1


def _manifest_entries(arrays: dict[str, np.ndarray], offset: int):
    entries = []
    for name in arrays:
        arr = arrays[name]
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    return entries, offset


def save_checkpoint(
    prefix: str | Path,
    params: FlnParams,
    run_config: dict | None = None,
    epoch: int = 0,
    optimizer: AdamState | None = None,
    scale: float | None = None,
) -> None:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    param_arrays = {name: tensor.data for name, tensor in params.tensors.items()}
    param_entries, offset = _manifest_entries(param_arrays, 0)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": epoch,
        "run_config": run_config or {},
        "model": {
            "backbone": dataclasses.asdict(params.cfg),
            "lengths": params.lengths,
        },
        "parameters": param_entries,
        "scale": scale,
    }
    arrays = list(param_arrays.values())
    if optimizer is not None:
        opt_arrays: dict[str, np.ndarray] = {}
        for slot in ("m", "v"):
            for name, arr in getattr(optimizer, slot).items():
                opt_arrays[f"{slot}.{name}"] = arr
        opt_entries, offset = _manifest_entries(opt_arrays, offset)
        manifest["optimizer"] = {"step": optimizer.step, "slots": opt_entries}
        arrays += opt_arrays.values()
    write_payload(prefix, manifest, arrays)


def load_checkpoint(
    prefix: str | Path,
) -> tuple[FlnParams, dict, AdamState | None]:
    """Rebuild parameters (and optimizer state if present) from disk."""
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
        opt_section = manifest.get("optimizer")
        if opt_section:
            entries = entries + list(opt_section["slots"])
        blocks = [(e["name"], e["offset"], _size(e["shape"])) for e in entries]
        model = manifest["model"]
        backbone = BackboneConfig(**model["backbone"])
        backbone.validate()
        params = FlnParams(backbone, dict(model["lengths"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {prefix}: malformed manifest: {exc!r}") from exc
    payload = read_payload(bin_path, blocks, f"checkpoint {prefix}")

    for entry in manifest["parameters"]:
        block = payload[entry["offset"] : entry["offset"] + _size(entry["shape"])]
        params.tensors[entry["name"]] = Tensor(
            block.reshape(entry["shape"]).astype(np.float64), requires_grad=True
        )
    missing = params.missing_tensor()
    if missing:
        raise ValueError(f"checkpoint {prefix}: malformed manifest: {missing}")

    optimizer = None
    if opt_section:
        optimizer = AdamState(step=int(opt_section["step"]))
        for entry in opt_section["slots"]:
            block = payload[entry["offset"] : entry["offset"] + _size(entry["shape"])]
            slot, name = entry["name"].split(".", 1)
            getattr(optimizer, slot)[name] = block.reshape(entry["shape"]).astype(np.float64)
    return params, manifest, optimizer
