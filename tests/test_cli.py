import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flexilen
from flexilen.checkpoint import load_checkpoint
from flexilen.cli import main
from flexilen.config import FLAT_KEYS, BackboneConfig, DataConfig, build_run_config
from flexilen.data import (
    Normalizer,
    TrajectoryScene,
    generate_from_config,
    save_dataset,
    split_scenes,
)
from flexilen.evaluation import evaluate, pe_deviation_report

TINY_ARGS = [
    "--set", "d_model=8", "--set", "heads=2", "--set", "layers=1",
    "--set", "dec_hidden=16", "--set", "modes=2", "--set", "horizon=3",
    "--set", "h_short=2", "--set", "h_medium=3", "--set", "h_long=4",
    "--set", "obs_len=4", "--set", "n_scenes=40", "--set", "epochs=2",
    "--set", "batch_size=16", "--set", "samples=2",
]


def _run(argv):
    return main(argv)


def test_generate_is_byte_identical_and_echoes_seed(tmp_path):
    for sub in ("a", "b"):
        code = _run(["generate", "--out", str(tmp_path / sub), "--seed", "9", *TINY_ARGS])
        assert code == 0
    assert (tmp_path / "a/dataset.bin").read_bytes() == (tmp_path / "b/dataset.bin").read_bytes()
    manifest = json.loads((tmp_path / "a/dataset.json").read_text())
    assert manifest["seed"] == 9


def test_generate_validates_before_writing(tmp_path):
    out = tmp_path / "bad"
    # samples=3 > modes=2: mode-means draws one sample per mode
    for bad in ("n_scenes=0", "samples=3"):
        code = _run(["generate", "--out", str(out), *TINY_ARGS, "--set", bad])
        assert code != 0
        assert not out.exists()


def test_stochastic_sampling_with_more_samples_than_modes_trains(tmp_path):
    # per-epoch validation draws mode means whatever the sampling setting is
    out = tmp_path / "fln"
    code = _run([
        "train", "--out", str(out), "--strategy", "fln", *TINY_ARGS,
        "--set", "sampling=stochastic", "--set", "samples=5",
    ])
    assert code == 0
    assert (out / "checkpoint.json").exists()


def test_unknown_config_key_rejected(tmp_path):
    for key in ("bogus_key", "derivation", "deterministic"):
        code = _run(["generate", "--out", str(tmp_path / "x"), "--set", f"{key}=1", *TINY_ARGS])
        assert code != 0
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(k for k, (_, _, kind) in FLAT_KEYS.items() if kind is float))
def test_non_finite_float_keys_exit_2_before_writing(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    code = _run(["train", "--out", str(out), *TINY_ARGS, "--set", f"{key}={value}"])
    assert code == 2
    assert f"{key} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny run\n"
        "d_model = 8\nheads = 2\nlayers = 1\ndec_hidden = 16\nmodes = 2\nhorizon = 3\n"
        "h_short = 2\nh_medium = 3\nh_long = 4\nobs_len = 4\nn_scenes = 30\n"
        "epochs = 1\nbatch_size = 16\nsamples = 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = _run([
        "train", "--config", str(cfg), "--out", str(out),
        "--strategy", "fln", "--seed", "1",
    ])
    assert code == 0
    assert (out / "checkpoint.json").exists()
    assert (out / "checkpoint.bin").exists()


def test_train_fln_emits_loss_columns(tmp_path):
    out = tmp_path / "fln"
    code = _run(["train", "--out", str(out), "--strategy", "fln", *TINY_ARGS])
    assert code == 0
    with open(out / "checkpoint_log.csv") as handle:
        header = next(csv.reader(handle))
    assert "reg" in header and "kl" in header
    assert header[4:6] == ["seconds", "val_seconds"]
    with open(out / "checkpoint_log.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert all(0.0 <= float(r["val_seconds"]) <= float(r["seconds"]) for r in rows)
    summary = json.loads((out / "checkpoint_summary.json").read_text())
    assert summary["strategy"] == "fln"
    assert summary["epochs"] == 2


def test_train_isolated_requires_length(tmp_path):
    code = _run(["train", "--out", str(tmp_path / "x"), "--strategy", "isolated", *TINY_ARGS])
    assert code != 0


def test_train_isolated_with_length(tmp_path):
    out = tmp_path / "iso"
    code = _run([
        "train", "--out", str(out), "--strategy", "isolated", "--length", "3", *TINY_ARGS
    ])
    assert code == 0
    manifest = json.loads((out / "checkpoint.json").read_text())
    assert manifest["model"]["lengths"] == {"L": 3}


def test_eval_routes_and_reports_branch(tmp_path):
    out = tmp_path / "fln"
    assert _run(["train", "--out", str(out), "--strategy", "fln", *TINY_ARGS]) == 0
    eval_out = tmp_path / "eval"
    code = _run([
        "eval", "--out", str(eval_out), "--checkpoint", str(out / "checkpoint"),
        "--length", "3", "--samples", "2",
    ])
    assert code == 0
    payload = json.loads((eval_out / "metrics.json").read_text())
    assert payload["routed_branch"] == "M"
    assert np.isfinite(payload["ade"])
    assert payload["seed"] == 0


def test_eval_missing_checkpoint_errors(tmp_path, capsys):
    code = _run([
        "eval", "--out", str(tmp_path / "x"), "--checkpoint", str(tmp_path / "missing"),
        "--length", "3",
    ])
    assert code != 0
    assert "not found" in capsys.readouterr().err


BAD_BACKBONE_VALUES = {
    "layers_str": ("layers", "1"),
    "layers_float": ("layers", 1.0),
    "heads_bool": ("heads", True),
    "d_model_0": ("d_model", 0),
}

# branch lengths a manifest may not record: an unknown id, a length that is
# not an integer >= 1, and lengths out of S < M < L order
BAD_LENGTHS = {
    "unknown_id": ({"X": 4}, "branch ids must be a non-empty subset"),
    "zero": ({"L": 0}, "branch lengths must be integers >= 1"),
    "negative": ({"L": -2}, "branch lengths must be integers >= 1"),
    "float": ({"L": 2.9}, "branch lengths must be integers >= 1"),
    "bool": ({"L": True}, "branch lengths must be integers >= 1"),
    "short_longer_than_long": ({"L": 4, "S": 9}, "branch lengths must increase in S < M < L order"),
}


@pytest.mark.parametrize(
    "corrupt",
    ["unknown_backbone_key", "missing_model", "renamed_parameter", *BAD_BACKBONE_VALUES,
     *(f"lengths_{name}" for name in BAD_LENGTHS)],
)
def test_eval_malformed_checkpoint_manifest_exits_2(tmp_path, capsys, corrupt):
    from flexilen.backbone import init_params
    from flexilen.checkpoint import save_checkpoint

    prefix = tmp_path / "checkpoint"
    save_checkpoint(prefix, init_params(BackboneConfig(d_model=8, heads=2), {"L": 3}, 0))
    manifest = json.loads((tmp_path / "checkpoint.json").read_text())
    if corrupt == "unknown_backbone_key":
        manifest["model"]["backbone"]["bogus"] = 1
    elif corrupt == "missing_model":
        del manifest["model"]
    elif corrupt in BAD_BACKBONE_VALUES:
        key, value = BAD_BACKBONE_VALUES[corrupt]
        manifest["model"]["backbone"][key] = value
    elif corrupt.startswith("lengths_"):
        manifest["model"]["lengths"] = BAD_LENGTHS[corrupt.removeprefix("lengths_")][0]
    else:
        (entry,) = [e for e in manifest["parameters"] if e["name"] == "shared.dec.w2"]
        entry["name"] = "shared.dec.w2x"
    (tmp_path / "checkpoint.json").write_text(json.dumps(manifest))
    code = _run([
        "eval", "--out", str(tmp_path / "e"), "--checkpoint", str(prefix), "--length", "3",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"checkpoint {prefix}: malformed manifest" in err
    if corrupt == "renamed_parameter":
        assert "branch L reads a missing tensor 'shared.dec.w2'" in err
    if corrupt in BAD_BACKBONE_VALUES:
        assert BAD_BACKBONE_VALUES[corrupt][0] in err
    if corrupt.startswith("lengths_"):
        assert BAD_LENGTHS[corrupt.removeprefix("lengths_")][1] in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("name", BAD_LENGTHS)
def test_init_params_rejects_bad_branch_lengths(name):
    from flexilen.backbone import init_params

    lengths, message = BAD_LENGTHS[name]
    with pytest.raises(ValueError, match=message):
        init_params(BackboneConfig(d_model=8, heads=2), lengths, 0)


def test_train_length_zero_is_rejected_for_an_isolated_run(tmp_path, capsys):
    # --length names isolated_length, so 0 overrides the --set value rather
    # than being ignored
    out = tmp_path / "out"
    code = _run([
        "train", "--out", str(out), "--strategy", "isolated", *TINY_ARGS,
        "--set", "isolated_length=4", "--length", "0",
    ])
    assert code == 2
    assert "strategy=isolated requires isolated_length" in capsys.readouterr().err
    assert not out.exists()


def test_eval_reads_the_layout_from_the_parameter_names(tmp_path):
    # an older manifest also stored weight_sharing, independent_pe and
    # specialized_ln; flipping one of them changes nothing a forward reads
    out = tmp_path / "fln"
    assert _run([
        "train", "--out", str(out), "--strategy", "fln", *TINY_ARGS, "--set", "pe_kind=learnable",
    ]) == 0
    prefix = out / "checkpoint"
    manifest = json.loads((out / "checkpoint.json").read_text())
    assert sorted(manifest["model"]) == ["backbone", "lengths"]
    flags = {"weight_sharing": True, "independent_pe": True, "specialized_ln": True}
    reports = []
    for flipped in [None, *flags]:
        manifest["model"].update(flags)
        if flipped is not None:
            manifest["model"][flipped] = False
        (out / "checkpoint.json").write_text(json.dumps(manifest))
        eval_out = tmp_path / f"eval_{flipped}"
        code = _run([
            "eval", "--out", str(eval_out), "--checkpoint", str(prefix), "--length", "3",
        ])
        assert code == 0
        reports.append((eval_out / "metrics.json").read_bytes())
    assert reports[1:] == reports[:1] * 3


@pytest.mark.parametrize("n_scenes", [1, 2])
def test_train_with_an_empty_train_split_exits_2(tmp_path, capsys, n_scenes):
    # scenes split by id hash, and neither syn-000000 nor syn-000001 falls in train
    out = tmp_path / "run"
    code = _run(["train", "--out", str(out), *TINY_ARGS, "--set", f"n_scenes={n_scenes}"])
    assert code == 2
    assert "the train split is empty" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_equal_medium_and_long_lengths_exits_2(tmp_path, capsys):
    # joint would train two length-4 models, and routing to 4 would pick M
    out = tmp_path / "run"
    code = _run(["train", "--out", str(out), *TINY_ARGS, "--set", "h_medium=4"])
    assert code == 2
    assert "1 <= h_short < h_medium < h_long" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["agents", "dt"])
def test_train_on_a_dataset_scene_missing_a_key_exits_2(tmp_path, capsys, key):
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), *TINY_ARGS]) == 0
    manifest = json.loads((data / "dataset.json").read_text())
    del manifest["scenes"][0][key]
    (data / "dataset.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    code = _run(["train", "--out", str(out), "--data", str(data), *TINY_ARGS])
    assert code == 2
    assert f"dataset {data}: malformed manifest" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value", [("agents", "3"), ("steps", 4.0), ("offset", False)], ids=["str", "float", "bool"]
)
def test_train_on_a_dataset_scene_with_a_non_integer_count_exits_2(tmp_path, capsys, key, value):
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), *TINY_ARGS]) == 0
    manifest = json.loads((data / "dataset.json").read_text())
    manifest["scenes"][0][key] = value
    (data / "dataset.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    code = _run(["train", "--out", str(out), "--data", str(data), *TINY_ARGS])
    assert code == 2
    err = capsys.readouterr().err
    assert f"dataset {data}: malformed manifest: scene 'syn-000000' needs integer" in err
    assert not out.exists()


def test_eval_below_shortest_branch_surfaces_routing_error(tmp_path, capsys):
    out = tmp_path / "fln"
    assert _run(["train", "--out", str(out), "--strategy", "fln", *TINY_ARGS]) == 0
    code = _run([
        "eval", "--out", str(tmp_path / "e"), "--checkpoint", str(out / "checkpoint"),
        "--length", "1",
    ])
    assert code != 0
    assert "no branch" in capsys.readouterr().err


def test_eval_beyond_a_learnable_isolated_table_exits_2(tmp_path, capsys):
    out = tmp_path / "iso"
    args = [*TINY_ARGS, "--set", "obs_len=6"]
    assert _run([
        "train", "--out", str(out), "--strategy", "isolated", "--length", "4",
        "--set", "pe_kind=learnable", *args,
    ]) == 0
    capsys.readouterr()
    code = _run([
        "eval", "--out", str(tmp_path / "e"), "--checkpoint", str(out / "checkpoint"),
        "--length", "6", *args,
    ])
    assert code == 2
    assert "input length 6 exceeds the learnable table (4 rows)" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_sweep_range_syntax_and_row_count(tmp_path):
    out = tmp_path / "fln"
    assert _run(["train", "--out", str(out), "--strategy", "fln", *TINY_ARGS]) == 0
    sweep_out = tmp_path / "sweep"
    code = _run([
        "sweep", "--out", str(sweep_out), "--checkpoint", str(out / "checkpoint"),
        "--lengths", "2..4", "--samples", "2",
    ])
    assert code == 0
    with open(sweep_out / "sweep.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["h_eval"]) for r in rows] == [2, 3, 4]
    assert all(r["branch"] in "SML" for r in rows)


def test_probe_pe_zero_when_equal(tmp_path):
    out = tmp_path / "probe"
    code = _run([
        "probe", "pe", "--out", str(out), "--h1", "4", "--h2", "4",
        *TINY_ARGS,
    ])
    assert code == 0
    with open(out / "pe_deviation_4_4.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert all(float(r["distance"]) == 0.0 for r in rows)


def test_probe_ln_two_checkpoints_aligned(tmp_path):
    fln_out = tmp_path / "fln"
    iso_out = tmp_path / "iso"
    assert _run(["train", "--out", str(fln_out), "--strategy", "fln", *TINY_ARGS]) == 0
    assert _run([
        "train", "--out", str(iso_out), "--strategy", "isolated", "--length", "4", *TINY_ARGS
    ]) == 0
    probe_out = tmp_path / "probe"
    code = _run([
        "probe", "ln", "--out", str(probe_out), "--length", "4",
        "--checkpoint", str(fln_out / "checkpoint"),
        "--checkpoint", str(iso_out / "checkpoint"),
        *TINY_ARGS,
    ])
    assert code == 0
    with open(probe_out / "ln_stats_0.csv") as a, open(probe_out / "ln_stats_1.csv") as b:
        rows_a = list(csv.DictReader(a))
        rows_b = list(csv.DictReader(b))
    assert [(r["site"], r["position"]) for r in rows_a] == [
        (r["site"], r["position"]) for r in rows_b
    ]


def test_probe_ln_rejects_length_beyond_the_observed_history(tmp_path, capsys):
    iso_out = tmp_path / "iso"
    assert _run([
        "train", "--out", str(iso_out), "--strategy", "isolated", "--length", "4", *TINY_ARGS
    ]) == 0
    probe_out = tmp_path / "probe"
    code = _run([
        "probe", "ln", "--out", str(probe_out), "--length", "6",
        "--checkpoint", str(iso_out / "checkpoint"),
    ])
    assert code == 2
    assert "has only 4 observed steps (< 6)" in capsys.readouterr().err
    assert not (probe_out / "ln_stats_0.json").exists()


def test_probe_ln_keeps_the_routed_branch_window(tmp_path):
    # H'=6 routes to L (H=4), as in eval and sweep, which keep its last 4 steps
    out = tmp_path / "fln"
    args = [*TINY_ARGS, "--set", "obs_len=6"]
    assert _run(["train", "--out", str(out), "--strategy", "fln", *args]) == 0
    reports = {}
    for length in (6, 4):
        probe_out = tmp_path / f"probe{length}"
        assert _run([
            "probe", "ln", "--out", str(probe_out), "--length", str(length),
            "--checkpoint", str(out / "checkpoint"),
        ]) == 0
        reports[length] = json.loads((probe_out / "ln_stats_0.json").read_text())
    assert reports[6]["length"] == 6 and reports[6]["branch"] == "L"
    assert all(len(site["mean"]) == 4 for site in reports[6]["sites"].values())
    assert reports[6]["sites"] == reports[4]["sites"]


def test_probe_unknown_kind_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        _run(["probe", "wat", "--out", str(tmp_path / "x")])


def test_train_then_eval_from_saved_dataset(tmp_path):
    data_out = tmp_path / "data"
    assert _run(["generate", "--out", str(data_out), *TINY_ARGS]) == 0
    train_out = tmp_path / "train"
    assert _run([
        "train", "--out", str(train_out), "--strategy", "mixed",
        "--data", str(data_out), *TINY_ARGS,
    ]) == 0
    code = _run([
        "eval", "--out", str(tmp_path / "eval"), "--checkpoint", str(train_out / "checkpoint"),
        "--data", str(data_out), "--length", "4", "--samples", "2",
    ])
    assert code == 0


STRATEGY_ARGS = {
    "fln": [],
    "isolated": ["--length", "2"],
    "mixed": [],
    "finetune": ["--set", "finetune_target=2"],
    "joint": [],
}


@pytest.mark.parametrize(
    "strategy, name, stop_epoch",
    # finetune's epochs 0-4 are the long-length phase; 6 is its second
    # adaptation epoch, so the marker counts both phases; joint stops in the
    # second epoch of its first model, the one for h_short=2
    [
        ("fln", "checkpoint", 1),
        ("isolated", "checkpoint", 1),
        ("mixed", "checkpoint", 1),
        ("finetune", "checkpoint", 6),
        ("joint", "checkpoint_h2", 1),
    ],
    ids=["fln", "isolated", "mixed", "finetune", "joint"],
)
def test_interrupted_run_keeps_last_epoch_checkpoint(
    tmp_path, monkeypatch, strategy, name, stop_epoch
):
    """Per-epoch snapshots are written atomically, so an interrupt after any
    completed epoch leaves a loadable checkpoint for that epoch."""
    from flexilen import cli
    from flexilen.checkpoint import save_checkpoint

    def save_then_interrupt(prefix, params, run_config, epoch, scale):
        save_checkpoint(prefix, params, run_config, epoch=epoch, scale=scale)
        if prefix.name == name and epoch == stop_epoch + 1:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "save_checkpoint", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        _run([
            "train", "--out", str(tmp_path), "--strategy", strategy, *TINY_ARGS,
            "--set", "n_scenes=30", "--set", "epochs=5", "--set", "finetune_patience=50",
            *STRATEGY_ARGS[strategy],
        ])
    params, manifest, _ = load_checkpoint(tmp_path / name)
    assert manifest["epoch"] == stop_epoch + 1
    assert all(np.all(np.isfinite(t.data)) for t in params.tensors.values())
    # joint's later models never started
    assert list(tmp_path.glob("checkpoint*.json")) == [tmp_path / f"{name}.json"]


@pytest.mark.parametrize("strategy", sorted(STRATEGY_ARGS))
def test_train_writes_each_checkpoint_once_per_epoch(tmp_path, monkeypatch, strategy):
    """Checkpoints are written only by the per-epoch hook, one model at a
    time, plus finetune's pre-adaptation model once at the end."""
    from flexilen import cli

    saved = []

    def record(prefix, params, run_config, epoch, scale):
        saved.append((prefix.name, epoch))
        assert type(scale) is float and scale > 0

    monkeypatch.setattr(cli, "save_checkpoint", record)
    assert _run([
        "train", "--out", str(tmp_path), "--strategy", strategy, *TINY_ARGS,
        "--set", "finetune_max_epochs=2", "--set", "finetune_patience=1",
        *STRATEGY_ARGS[strategy],
    ]) == 0
    epochs = {
        path.name[: -len("_summary.json")]: json.loads(path.read_text())["epochs"]
        for path in tmp_path.glob("*_summary.json")
    }
    expected = [(name, epoch) for name in sorted(epochs) for epoch in range(1, epochs[name] + 1)]
    if strategy == "finetune":
        expected.append(("checkpoint_pretune", 2))
    assert saved == expected


def _count_adam_steps(monkeypatch) -> list:
    from flexilen import training

    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args, **kwargs: steps.append(1))
    return steps


@pytest.mark.parametrize("val", [["--set", "val_frac=0"], []], ids=["no-val", "val"])
def test_train_isolated_longer_than_the_observed_history_exits_2(
    tmp_path, capsys, monkeypatch, val
):
    # obs_len 4: a length-20 model would train on 4 steps, or fail after an epoch
    steps = _count_adam_steps(monkeypatch)
    out = tmp_path / "run"
    code = _run([
        "train", "--out", str(out), "--strategy", "isolated", "--length", "20", *TINY_ARGS, *val
    ])
    assert code == 2
    assert re.search(r"scene syn-\d+ has only 4 observed steps \(< 20\)", capsys.readouterr().err)
    assert not steps and not list(out.glob("checkpoint*"))


@pytest.mark.parametrize("strategy", sorted(STRATEGY_ARGS))
def test_train_on_a_dataset_shorter_than_its_lengths_exits_2(
    tmp_path, capsys, monkeypatch, strategy
):
    # the dataset has 4 observed steps; the run's config asks for h_long=6
    steps = _count_adam_steps(monkeypatch)
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), *TINY_ARGS]) == 0
    out = tmp_path / "run"
    code = _run([
        "train", "--out", str(out), "--data", str(data), "--strategy", strategy, *TINY_ARGS,
        "--set", "h_long=6", "--set", "obs_len=6", "--set", "val_frac=0",
        *(["--length", "6"] if strategy == "isolated" else STRATEGY_ARGS[strategy]),
    ])
    assert code == 2
    assert re.search(r"scene syn-\d+ has only 4 observed steps \(< 6\)", capsys.readouterr().err)
    assert not steps and not list(out.glob("checkpoint*"))


@pytest.fixture(scope="module")
def no_observed_step(tmp_path_factory):
    """A dataset whose scenes end where the 3-step future starts: 2 and 3
    steps in all, so no observed step is left before the future."""
    data = tmp_path_factory.mktemp("cut") / "data"
    scenes = generate_from_config(
        DataConfig(n_scenes=20, agents_min=2, agents_max=2, obs_len=4, horizon=3), 0
    )
    save_dataset(data, [
        TrajectoryScene(s.positions[:, : 2 + index % 2], s.dt, s.scene_id)
        for index, s in enumerate(scenes)
    ], {})
    return data


def test_train_on_scenes_with_no_observed_step_exits_2(tmp_path, capsys, no_observed_step):
    out = tmp_path / "run"
    code = _run(["train", "--out", str(out), "--data", str(no_observed_step), *TINY_ARGS])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"scene syn-\d+: [23] steps leave no observed step before the 3-step future", err)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fln", "iso"])
def test_eval_on_scenes_with_no_observed_step_exits_2(
    trained, tmp_path, capsys, no_observed_step, kind
):
    out = tmp_path / "eval"
    code = _run([
        "eval", "--out", str(out), "--checkpoint", str(trained[kind]), "--length", "4",
        "--data", str(no_observed_step),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"scene syn-\d+: [23] steps leave no observed step before the 3-step future", err)
    assert "Traceback" not in err
    assert not out.exists()


def test_probe_pe_learnable_checkpoint_tables(tmp_path):
    out = tmp_path / "fln"
    code = _run([
        "train", "--out", str(out), "--strategy", "fln",
        *TINY_ARGS, "--set", "pe_kind=learnable",
    ])
    assert code == 0
    probe_out = tmp_path / "probe"
    code = _run([
        "probe", "pe", "--out", str(probe_out), "--h1", "2", "--h2", "3",
        "--checkpoint", str(out / "checkpoint"),
    ])
    assert code == 0
    with open(probe_out / "pe_deviation_2_3.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2  # min(h1, h2) timesteps


def test_train_finetune_writes_pretune_checkpoint(tmp_path):
    out = tmp_path / "ft"
    code = _run([
        "train", "--out", str(out), "--strategy", "finetune", *TINY_ARGS,
        "--set", "finetune_target=2", "--set", "finetune_max_epochs=2",
        "--set", "finetune_patience=1",
    ])
    assert code == 0
    assert (out / "checkpoint_pretune.json").exists()
    assert (out / "checkpoint.json").exists()
    pre = json.loads((out / "checkpoint_pretune.json").read_text())
    post = json.loads((out / "checkpoint.json").read_text())
    assert post["epoch"] > pre["epoch"] - 1  # adaptation epochs appended


def test_train_joint_writes_model_per_length(tmp_path):
    out = tmp_path / "joint"
    code = _run(["train", "--out", str(out), "--strategy", "joint", *TINY_ARGS])
    assert code == 0
    for h in (2, 3, 4):
        assert (out / f"checkpoint_h{h}.json").exists()
        assert (out / f"checkpoint_h{h}_log.csv").exists()


def test_sweep_rows_match_single_length_eval(tmp_path):
    out = tmp_path / "fln"
    assert _run(["train", "--out", str(out), "--strategy", "fln", *TINY_ARGS]) == 0
    assert _run([
        "sweep", "--out", str(tmp_path / "sweep"), "--checkpoint", str(out / "checkpoint"),
        "--lengths", "3,4", "--samples", "2",
    ]) == 0
    assert _run([
        "eval", "--out", str(tmp_path / "eval3"), "--checkpoint", str(out / "checkpoint"),
        "--length", "3", "--samples", "2",
    ]) == 0
    sweep_rows = json.loads((tmp_path / "sweep/sweep.json").read_text())["rows"]
    single = json.loads((tmp_path / "eval3/metrics.json").read_text())
    row3 = next(r for r in sweep_rows if r["h_eval"] == 3)
    assert row3["ade"] == pytest.approx(single["ade"], rel=1e-12)
    assert row3["fde"] == pytest.approx(single["fde"], rel=1e-12)


def test_probe_reports_include_json_summaries(tmp_path):
    out = tmp_path / "fln"
    assert _run(["train", "--out", str(out), "--strategy", "fln", *TINY_ARGS]) == 0
    probe_out = tmp_path / "probe"
    assert _run([
        "probe", "pe", "--out", str(probe_out), "--h1", "2", "--h2", "4", *TINY_ARGS
    ]) == 0
    assert _run([
        "probe", "ln", "--out", str(probe_out), "--length", "4",
        "--checkpoint", str(out / "checkpoint"), *TINY_ARGS,
    ]) == 0
    pe = json.loads((probe_out / "pe_deviation_2_4.json").read_text())
    assert pe["timesteps"] == 2 and pe["max_distance"] > 0
    ln = json.loads((probe_out / "ln_stats_0.json").read_text())
    assert ln["length"] == 4 and "enc.l0.norm1" in ln["sites"]


# ------------------------------------------- commands that start from a checkpoint


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An FLN checkpoint and an isolated H=4 one, both on 6-step histories."""
    root = tmp_path_factory.mktemp("trained")
    args = [*TINY_ARGS, "--set", "obs_len=6"]
    assert _run(["train", "--out", str(root / "fln"), "--strategy", "fln", *args]) == 0
    assert _run([
        "train", "--out", str(root / "iso"), "--strategy", "isolated", "--length", "4", *args
    ]) == 0
    return {"fln": root / "fln" / "checkpoint", "iso": root / "iso" / "checkpoint"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--length", "3", "--set", "bogus=1"], "unknown config key 'bogus'"),
        (["sweep", "--lengths", "2..4", "--set", "bogus=1"], "unknown config key 'bogus'"),
        (["probe", "ln", "--length", "3", "--set", "bogus=1"], "unknown config key 'bogus'"),
        (["eval", "--length", "3", "--set", "d_model=4"], "{ckpt} was trained with d_model=8"),
        (["sweep", "--lengths", "2..4", "--set", "horizon=4"], "{ckpt} was trained with horizon=3"),
        (["probe", "ln", "--length", "3", "--set", "epochs=5"], "{ckpt} was trained with epochs=2"),
        (["probe", "pe", "--h1", "2", "--h2", "3", "--set", "lambda_kl=0.5"], "with lambda_kl=1.0"),
        (["sweep", "--lengths", "4..2"], "--lengths '4..2' names no length"),
    ],
    ids=[
        "eval-unknown", "sweep-unknown", "probe-ln-unknown", "eval-model-key",
        "sweep-horizon", "probe-ln-train-key", "probe-pe-branch-key", "sweep-no-length",
    ],
)
def test_checkpoint_commands_validate_before_writing(trained, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = _run([*argv, "--out", str(out), "--checkpoint", str(trained["fln"])])
    assert code == 2
    assert message.format(ckpt=trained["fln"]) in capsys.readouterr().err
    assert not out.exists()


def test_probe_ln_builds_every_run_before_writing(trained, tmp_path, capsys):
    out = tmp_path / "probe"
    code = _run([
        "probe", "ln", "--out", str(out), "--length", "4",
        "--checkpoint", str(trained["fln"]), "--checkpoint", str(tmp_path / "missing"),
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fln", "iso"])
@pytest.mark.parametrize(
    "argv",
    [["eval", "--length=-2"], ["eval", "--length", "0"], ["sweep", "--lengths", "0,4"],
     ["probe", "ln", "--length", "0"]],
    ids=["eval-negative", "eval-zero", "sweep-zero", "probe-ln-zero"],
)
def test_lengths_below_one_are_rejected(trained, tmp_path, capsys, kind, argv):
    out = tmp_path / "out"
    code = _run([*argv, "--out", str(out), "--checkpoint", str(trained[kind])])
    assert code == 2
    assert "length must be >= 1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_and_eval_take_the_seed_flag(trained, tmp_path):
    checkpoint = str(trained["fln"])
    assert _run([
        "sweep", "--out", str(tmp_path / "sweep"), "--checkpoint", checkpoint,
        "--lengths", "3,4", "--seed", "9",
    ]) == 0
    assert _run([
        "eval", "--out", str(tmp_path / "eval"), "--checkpoint", checkpoint,
        "--length", "3", "--seed", "9",
    ]) == 0
    sweep = json.loads((tmp_path / "sweep/sweep.json").read_text())
    single = json.loads((tmp_path / "eval/metrics.json").read_text())
    assert sweep["seed"] == single["seed"] == 9
    row3 = next(r for r in sweep["rows"] if r["h_eval"] == 3)
    assert (row3["ade"], row3["fde"], row3["branch"]) == (
        single["ade"], single["fde"], single["routed_branch"]
    )


def test_eval_data_keys_take_effect_from_set_and_config(trained, tmp_path):
    cfg = tmp_path / "more.cfg"
    cfg.write_text("n_scenes = 120\n", encoding="utf-8")
    variants = {
        "checkpoint": [],
        "set": ["--set", "n_scenes=120"],
        "config": ["--config", str(cfg)],
    }
    payloads = {}
    for name, extra in variants.items():
        out = tmp_path / name
        assert _run([
            "eval", "--out", str(out), "--checkpoint", str(trained["iso"]), "--length", "4",
            *extra,
        ]) == 0
        payloads[name] = json.loads((out / "metrics.json").read_text())
    assert payloads["set"] == payloads["config"]
    assert payloads["set"]["scene_count"] > payloads["checkpoint"]["scene_count"]
    assert "routed_branch" not in payloads["set"]


def test_eval_on_other_data_reads_the_checkpoint_scale(trained, tmp_path):
    # data regenerated with another seed is scored with the normalizer fitted
    # at training time, not one refit on the new data's train split
    out = tmp_path / "eval"
    assert _run([
        "eval", "--out", str(out), "--checkpoint", str(trained["fln"]), "--length", "3",
        "--seed", "11",
    ]) == 0
    params, manifest, _ = load_checkpoint(trained["fln"])
    cfg = build_run_config(manifest["run_config"])
    trained_split, other_split = (
        split_scenes(generate_from_config(cfg.data, seed), cfg.data.train_frac, cfg.data.val_frac)
        for seed in (0, 11)
    )
    normalizer = Normalizer(cfg.data.horizon).fit(trained_split.train)
    assert manifest["scale"] == normalizer.scale
    expected = evaluate(params, other_split.test, 3, cfg.eval.samples, normalizer, seed=11)
    payload = json.loads((out / "metrics.json").read_text())
    assert (payload["ade"], payload["fde"]) == (expected.ade, expected.fde)
    refit = Normalizer(cfg.data.horizon).fit(other_split.train)
    assert refit.scale != normalizer.scale
    assert evaluate(params, other_split.test, 3, cfg.eval.samples, refit, seed=11).ade != expected.ade


@pytest.mark.parametrize(
    "argv",
    [["eval", "--length", "3"], ["sweep", "--lengths", "2..4"], ["probe", "ln", "--length", "3"]],
    ids=["eval", "sweep", "probe-ln"],
)
def test_checkpoint_without_a_scale_exits_2(trained, tmp_path, capsys, argv):
    prefix = tmp_path / "checkpoint"
    manifest = json.loads(Path(f"{trained['fln']}.json").read_text())
    del manifest["scale"]
    Path(f"{prefix}.json").write_text(json.dumps(manifest))
    Path(f"{prefix}.bin").write_bytes(Path(f"{trained['fln']}.bin").read_bytes())
    out = tmp_path / "out"
    code = _run([*argv, "--out", str(out), "--checkpoint", str(prefix)])
    assert code == 2
    assert f"checkpoint {prefix} records no normalizer scale" in capsys.readouterr().err
    assert not out.exists()


def test_samples_flag_is_set_samples(trained, tmp_path):
    texts = []
    for name, extra in (("flag", ["--samples", "1"]), ("set", ["--set", "samples=1"])):
        out = tmp_path / name
        assert _run([
            "eval", "--out", str(out), "--checkpoint", str(trained["fln"]), "--length", "4",
            *extra,
        ]) == 0
        texts.append((out / "metrics.json").read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["k"] == 1


def test_probe_pe_takes_set_overrides(tmp_path):
    out = tmp_path / "probe"
    assert _run([
        "probe", "pe", "--out", str(out), "--h1", "2", "--h2", "8", "--set", "d_model=8"
    ]) == 0
    payload = json.loads((out / "pe_deviation_2_8.json").read_text())
    expected = pe_deviation_report(BackboneConfig(d_model=8), 2, 8).distances
    assert payload["distances"] == [float(d) for d in expected]


def test_probe_ln_below_every_branch_exits_like_eval(trained, tmp_path, capsys):
    # the FLN checkpoint's shortest branch has H=2, so H'=1 feeds no branch;
    # the isolated checkpoint probed first at H'=1 is fine, and nothing is written
    for command in (["eval"], ["probe", "ln", "--checkpoint", str(trained["iso"])]):
        out = tmp_path / command[0]
        code = _run([
            *command, "--out", str(out), "--length", "1", "--checkpoint", str(trained["fln"])
        ])
        assert code == 2
        assert "observed length 1 is shorter than every branch length (minimum 2)" in (
            capsys.readouterr().err
        )
        assert not out.exists()


def test_probe_ln_on_an_empty_test_split_exits_like_eval(trained, tmp_path, capsys):
    # 30 scenes at these fractions leave the test split empty
    split = ["--set", "n_scenes=30", "--set", "train_frac=0.98", "--set", "val_frac=0.015"]
    for command, message in (
        (["eval"], "no scenes to evaluate"),
        (["probe", "ln"], "no scenes to probe"),
    ):
        out = tmp_path / command[-1]
        code = _run([
            *command, "--out", str(out), "--length", "4", "--checkpoint", str(trained["fln"]),
            *split,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["probe", "pe", "--h1", "2", "--h2", "3", "--data", "{data}"], "--data"),
        (["probe", "pe", "--h1", "2", "--h2", "3", "--length", "4"], "--length"),
        (["probe", "pe", "--h1", "2", "--h2", "3", "--checkpoint", "{fln}",
          "--checkpoint", "{iso}"], "a second --checkpoint"),
        (["probe", "ln", "--length", "4", "--checkpoint", "{fln}", "--h1", "2"], "--h1"),
        (["probe", "ln", "--length", "4", "--checkpoint", "{fln}", "--h1", "2", "--h2", "3"],
         "--h1, --h2"),
    ],
    ids=["pe-data", "pe-length", "pe-second-checkpoint", "ln-h1", "ln-h1-h2"],
)
def test_probe_rejects_flags_it_does_not_read(trained, tmp_path, capsys, argv, flags):
    out = tmp_path / "out"
    names = {"data": tmp_path / "data", "fln": trained["fln"], "iso": trained["iso"]}
    code = _run([*(arg.format(**names) for arg in argv), "--out", str(out)])
    assert code == 2
    assert f"probe {argv[1]} does not take {flags}" in capsys.readouterr().err
    assert not out.exists()


_SCIPY_MODULES = """
import contextlib, io, json, sys
from flexilen.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"failed: {argv}")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(commands: list[list[str]]) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``commands``."""
    src = str(Path(flexilen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_default_commands_never_load_scipy_and_gelu_does(tmp_path):
    data, run, gelu = (str(tmp_path / name) for name in ("data", "run", "gelu"))
    checkpoint = str(tmp_path / "run" / "checkpoint")
    default = [
        ["generate", "--out", data, "--seed", "1", *TINY_ARGS],
        ["train", "--out", run, "--data", data, "--strategy", "fln", *TINY_ARGS],
        ["eval", "--out", str(tmp_path / "eval"), "--checkpoint", checkpoint, "--data", data,
         "--length", "3"],
        ["sweep", "--out", str(tmp_path / "sweep"), "--checkpoint", checkpoint, "--data", data,
         "--lengths", "2..4"],
    ]
    assert _scipy_modules_after(default) == []
    loaded = _scipy_modules_after([
        ["train", "--out", gelu, "--data", data, "--strategy", "fln", *TINY_ARGS,
         "--set", "activation=gelu"],
    ])
    assert "scipy.special" in loaded
    assert (tmp_path / "gelu" / "checkpoint.json").exists()
