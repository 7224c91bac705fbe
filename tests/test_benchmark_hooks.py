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
from pathlib import Path
from unittest import mock

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
