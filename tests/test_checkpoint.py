import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexilen import backbone as bb
from flexilen.checkpoint import load_checkpoint, save_checkpoint
from flexilen.config import BackboneConfig
from flexilen.training import AdamState

TINY = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3)


def _params(seed=0, pe_kind="sinusoidal"):
    cfg = BackboneConfig(
        d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3, pe_kind=pe_kind
    )
    return bb.init_params(cfg, {"S": 2, "M": 3, "L": 4}, seed)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20)
def test_round_trip_bit_identical(tmp_path_factory, seed):
    tmp = tmp_path_factory.mktemp("ckpt")
    params = _params(seed, pe_kind="learnable")
    rng = np.random.default_rng(seed)
    for tensor in params.tensors.values():
        tensor.data = rng.normal(size=tensor.shape)
    save_checkpoint(tmp / "model", params, {"seed": seed}, epoch=3)
    loaded, manifest, _ = load_checkpoint(tmp / "model")
    assert manifest["epoch"] == 3
    assert manifest["run_config"]["seed"] == seed
    assert sorted(loaded.tensors) == sorted(params.tensors)
    for name, tensor in params.tensors.items():
        assert loaded.tensors[name].data.tobytes() == tensor.data.tobytes()
    assert loaded.lengths == params.lengths
    assert loaded.cfg == params.cfg


def test_round_trip_with_optimizer(tmp_path):
    params = _params(1)
    state = AdamState(step=17)
    rng = np.random.default_rng(2)
    for name, tensor in params.tensors.items():
        state.m[name] = rng.normal(size=tensor.shape)
        state.v[name] = rng.uniform(0, 1, size=tensor.shape)
    save_checkpoint(tmp_path / "model", params, optimizer=state)
    _, _, loaded_state = load_checkpoint(tmp_path / "model")
    assert loaded_state.step == 17
    for name in state.m:
        assert loaded_state.m[name].tobytes() == state.m[name].tobytes()
        assert loaded_state.v[name].tobytes() == state.v[name].tobytes()


def test_manifest_offsets_tile_payload(tmp_path):
    params = _params(3)
    save_checkpoint(tmp_path / "model", params)
    manifest = json.loads((tmp_path / "model.json").read_text())
    payload = np.frombuffer((tmp_path / "model.bin").read_bytes(), dtype="<f8")
    total = 0
    for entry in manifest["parameters"]:
        assert entry["offset"] == total
        total += int(np.prod(entry["shape"])) if entry["shape"] else 1
    assert total == payload.size


def test_version_check(tmp_path):
    params = _params(4)
    save_checkpoint(tmp_path / "model", params)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(tmp_path / "model")


def test_corrupt_payload_detected(tmp_path):
    params = _params(5)
    save_checkpoint(tmp_path / "model", params)
    payload = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(payload[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(tmp_path / "model")


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")


def test_save_is_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        save_checkpoint(tmp_path / sub / "model", _params(6), {"seed": 6}, epoch=1)
    assert (tmp_path / "a/model.bin").read_bytes() == (tmp_path / "b/model.bin").read_bytes()
    assert (tmp_path / "a/model.json").read_text() == (tmp_path / "b/model.json").read_text()


# each layout ``init_params`` makes: backbone overrides, the flags (None for a
# single-length model), and the three flags an older writer stored with it
LAYOUTS = {
    "no_ws": ({}, {"weight_sharing": False}, (False, True, True)),
    "no_sln": ({}, {"specialized_ln": False}, (True, True, False)),
    "learnable_ipe": ({"pe_kind": "learnable"}, {}, (True, True, True)),
    "learnable_no_ipe": ({"pe_kind": "learnable"}, {"independent_pe": False}, (True, False, True)),
    "single": ({"pe_kind": "learnable"}, None, (True, False, False)),
}


def _layout(name, seed=0):
    overrides, flags, _ = LAYOUTS[name]
    cfg = dataclasses.replace(TINY, **overrides)
    if flags is None:
        params = bb.init_params(cfg, {"L": 4}, seed)
    else:
        params = bb.init_params(cfg, {"S": 2, "M": 3, "L": 4}, seed, **flags)
    rng = np.random.default_rng(seed + 1)
    for tensor in params.tensors.values():  # affines and tables start as ones and zeros
        tensor.data = rng.normal(size=tensor.shape)
    return params


def _predictions(params) -> list[bytes]:
    obs = np.random.default_rng(7).normal(size=(2, 3, 4, 2))
    if params.is_single:
        preds = [bb.forward_single(obs[:, :, -h:], params) for h in (2, 4)]
    else:
        preds = [bb.forward(obs[:, :, -params.lengths[b]:], b, params) for b in params.branch_ids]
    return [t.data.tobytes() for p in preds for t in (p.means, p.scales, p.logits)]


def _assert_same_model(loaded, params):
    assert list(loaded.tensors) == list(params.tensors)
    for name, tensor in params.tensors.items():
        assert loaded.tensors[name].data.tobytes() == tensor.data.tobytes(), name
    assert loaded.missing_tensor() is None
    assert _predictions(loaded) == _predictions(params)


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_every_layout_round_trips_and_predicts_bit_for_bit(tmp_path, layout):
    params = _layout(layout)
    save_checkpoint(tmp_path / "model", params)
    manifest = json.loads((tmp_path / "model.json").read_text())
    assert sorted(manifest["model"]) == ["backbone", "lengths"]
    loaded, _, _ = load_checkpoint(tmp_path / "model")
    _assert_same_model(loaded, params)


@pytest.mark.parametrize("flipped", [False, True], ids=["as_written", "flipped"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_a_manifest_with_the_old_sharing_flags_loads_by_its_names(tmp_path, layout, flipped):
    # older manifests also stored the three flags; the names alone decide
    params = _layout(layout)
    save_checkpoint(tmp_path / "model", params)
    manifest = json.loads((tmp_path / "model.json").read_text())
    flags = dict(zip(("weight_sharing", "independent_pe", "specialized_ln"), LAYOUTS[layout][2]))
    manifest["model"].update({k: v != flipped for k, v in flags.items()})
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    loaded, _, _ = load_checkpoint(tmp_path / "model")
    _assert_same_model(loaded, params)


@pytest.mark.parametrize(
    "layout,renamed,missing",
    [
        ("no_sln", "shared.dec.w1", "branch S reads a missing tensor 'shared.dec.w1'"),
        ("no_ws", "theta.M.enc.l0.attn.wq", "branch M reads a missing tensor 'shared.enc.l0.attn.wq'"),
        ("learnable_ipe", "sln.L.enc.final_norm.beta", "branch L reads a missing tensor 'sln.L.enc.final_norm.beta'"),
        ("learnable_ipe", "pe.S.table", "branch S reads a missing tensor 'pe.shared.table'"),
        ("single", "shared.enc.final_norm.gamma", "'shared.enc.final_norm.gamma'"),
    ],
    ids=["shared", "theta", "sln", "pe", "single"],
)
def test_a_manifest_that_leaves_a_branch_without_a_tensor_is_rejected(
    tmp_path, layout, renamed, missing
):
    save_checkpoint(tmp_path / "model", _layout(layout))
    manifest = json.loads((tmp_path / "model.json").read_text())
    (entry,) = [e for e in manifest["parameters"] if e["name"] == renamed]
    entry["name"] = renamed + "_renamed"
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as info:
        load_checkpoint(tmp_path / "model")
    assert str(info.value).startswith(f"checkpoint {tmp_path / 'model'}: malformed manifest: ")
    assert str(info.value).endswith(missing)


def test_unknown_backbone_keys_are_named_with_their_section_and_sorted(tmp_path):
    # a checkpoint written while the backbone still had these two switches
    save_checkpoint(tmp_path / "model", _params(8))
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["model"]["backbone"].update({"decoder_sln": False, "activation": "relu"})
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as info:
        load_checkpoint(tmp_path / "model")
    assert str(info.value) == (
        f"checkpoint {tmp_path / 'model'}: malformed manifest: "
        "unknown keys in model.backbone: 'activation', 'decoder_sln'"
    )
