"""The benchmark's hooks into the package.

``perfbench/run.py`` imports the package as one namespace, wraps the
functions ``perfbench/layers.py`` lists in ``targets`` and drives the
workloads of ``perfbench/workloads.py``, which call a few package names
directly. A refactor that deletes or moves one of them fails here, not in a
traced benchmark run.
"""
from __future__ import annotations

import importlib
import os
import re
import sys
import types
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the package names perfbench/workloads.py calls, as (module, attribute)
WORKLOAD_CALLS = {
    ("protocols", "study_run_config"),
    ("config", "run_config_to_flat"),
    ("data", "load_dataset"),
    ("data", "split_scenes"),
    ("backbone", "cv_rollout"),
    ("checkpoint", "load_checkpoint"),
    ("cli", "main"),
}


def _perfbench_module(name: str):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    with mock.patch.dict(os.environ):  # run.py pins the BLAS threads on import
        return importlib.import_module(name)


@pytest.fixture(scope="module")
def fx():
    """The namespace ``run.import_program`` builds: every module it names."""
    modules = _perfbench_module("run").MODULES
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"flexilen.{name}") for name in modules}
    )


def test_every_traced_target_resolves_to_a_callable(fx):
    targets = _perfbench_module("layers").targets(fx)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_every_package_name_the_workloads_call_resolves(fx):
    source = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    called = set(re.findall(r"\bfx\.(\w+)\.(\w+)", source))
    assert WORKLOAD_CALLS <= called
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(called)
        if not callable(getattr(getattr(fx, module), attr, None))
    ]
    assert not missing


@pytest.mark.parametrize("strategy", ["fln", "isolated"])
def test_the_tracer_sees_one_backward_and_one_adam_step_per_training_step(fx, strategy):
    # the traced workloads read step counts, step times and tape sizes off
    # these wrapped calls, so a training loop that called them under other
    # names would trace as zero steps
    config = fx.config
    cfg = config.RunConfig(
        backbone=config.BackboneConfig(
            d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3
        ),
        branches=config.BranchConfig(h_short=2, h_medium=3, h_long=4),
        data=config.DataConfig(n_scenes=40, agents_min=2, agents_max=3, obs_len=4, horizon=3),
        train=config.TrainConfig(
            strategy=strategy, epochs=2, batch_size=8, lr=2e-3,
            isolated_length=4 if strategy == "isolated" else 0,
        ),
        eval=config.EvalConfig(samples=2),
        seed=0,
    )
    cfg.validate()
    scenes = fx.data.generate_from_config(cfg.data, cfg.seed)
    split = fx.data.split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)
    normalizer = fx.data.Normalizer(cfg.data.horizon).fit(split.train)
    table = fx.training.prepare_scenes(split.train, normalizer, 4)
    # a batch holds scenes of one (agent count, observed steps) key
    keys = Counter(zip(np.diff(table.starts).tolist(), table.steps.tolist()))
    steps = cfg.train.epochs * sum(-(-n // cfg.train.batch_size) for n in keys.values())

    spans, layers = _perfbench_module("spans"), _perfbench_module("layers")
    tracer = spans.Tracer("flexilen")
    with tracer.tracing(layers.targets(fx), run=0):
        if strategy == "fln":
            fx.training.train_fln(split, cfg, normalizer)
        else:
            fx.training.train_isolated(split, cfg, 4, normalizer)
    totals = spans.layer_totals(tracer.spans, [0])
    wrapped = ("autodiff.backward", "training.adam_step")
    calls = {name: totals.get(name, {}).get("calls", 0) for name in wrapped}
    assert calls == {"autodiff.backward": steps, "training.adam_step": steps}
    metrics = layers.per_layer_metrics(tracer, [0], [])
    assert metrics["training.steps"] == steps
    assert metrics["autodiff.tape_nodes_per_step"] > 0


def _train_argv(out: Path, strategy: str) -> list[str]:
    """A tiny two-epoch ``cli.main`` training run into ``out``."""
    return [
        "train", "--out", str(out), "--strategy", strategy, "--seed", "0",
        "--set", "d_model=8", "--set", "heads=2", "--set", "layers=1",
        "--set", "dec_hidden=16", "--set", "modes=2", "--set", "horizon=3",
        "--set", "h_short=2", "--set", "h_medium=3", "--set", "h_long=4",
        "--set", "obs_len=4", "--set", "n_scenes=40", "--set", "epochs=2",
        "--set", "batch_size=8", "--set", "samples=2",
        *(["--length", "4"] if strategy == "isolated" else []),
    ]


@pytest.mark.parametrize("strategy", ["fln", "isolated"])
def test_the_tracer_sees_the_trainer_that_train_runs_from_the_cli(fx, strategy, tmp_path):
    # the traced workloads train through ``cli.main``; the tracer wraps only
    # names bound at module level, so a dispatch that bound the trainers at
    # import would run them unwrapped: no training span and no steps
    argv = _train_argv(tmp_path, strategy)
    spans, layers = _perfbench_module("spans"), _perfbench_module("layers")
    tracer = spans.Tracer("flexilen")
    with tracer.tracing(layers.targets(fx), run=0):
        assert fx.cli.main(argv) == 0
    totals = spans.layer_totals(tracer.spans, [0])
    assert totals.get(f"training.train_{strategy}", {}).get("calls") == 1
    metrics = layers.per_layer_metrics(tracer, [0], [])
    assert totals["autodiff.backward"]["calls"] == metrics["training.steps"] > 0


def test_a_trained_checkpoint_unpacks_as_check_training_reads_it(fx, tmp_path):
    # ``workloads.Bench.check_training`` unpacks three values and reads the
    # manifest's epoch marker; a return of another length fails only inside
    # a benchmark run
    assert fx.cli.main(_train_argv(tmp_path, "fln")) == 0
    _, manifest, _ = fx.checkpoint.load_checkpoint(tmp_path / "checkpoint")
    assert manifest["epoch"] == 2
