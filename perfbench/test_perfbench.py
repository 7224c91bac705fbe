"""Tests for the benchmark's own arithmetic and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

from spans import (
    HOOK,
    Tracer,
    layer_totals,
    percentile,
    self_times,
    step_times,
    tail_percentile,
)
from workloads import Iteration, encoder_sites, expected_routing, nearest_branch, throughput

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def span(name, start, end, parent=-1, run=0):
    return [name, float(start), float(end), parent, run]


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0, 10),
        span("a", 1, 4, parent=0),
        span("a.child", 2, 3, parent=1),
        span("b", 5, 9, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_count_calls_self_and_outermost_inclusive_time():
    spans = [
        span("cli", 0, 10),
        span("f", 1, 6, parent=0),
        span("f", 2, 4, parent=1),  # f nested in itself
        span("g", 7, 8, parent=0),
        span("f", 20, 21, run=1),  # another run, filtered out
    ]
    totals = layer_totals(spans, runs=[0])
    assert totals["f"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0}
    assert totals["cli"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    assert totals["g"]["total_s"] == 1.0
    assert layer_totals(spans, runs=[1])["f"]["calls"] == 1


def test_step_times_run_from_loss_call_to_optimizer_end_minus_hooks():
    spans = [
        span("loop", 0, 100),
        span("loss", 1, 5, parent=0),
        span("backward", 5, 8, parent=0),
        span(HOOK, 8, 9, parent=0),
        span("adam", 9, 10, parent=0),
        span("forward", 12, 13, parent=0),  # a second step starts at its forward
        span("loss", 13, 15, parent=0),
        span("adam", 15, 17, parent=0),
        span("val", 20, 30, parent=0),  # validation is not a step
        span("forward", 21, 22, parent=7),  # nested, not a child of the loop
        span("adam", 40, 41, parent=0),  # an optimizer call with no loss before it
    ]
    steps = step_times(spans, [0], ("loop",), ("loss", "forward"), "adam")
    assert steps == [9.0 - 1.0, 5.0]


# ------------------------------------------------------------------ percentiles


@pytest.mark.parametrize("p", [0, 10, 25, 50, 75, 90, 99, 100])
def test_percentile_matches_linear_interpolation(p):
    values = list(np.random.default_rng(0).exponential(size=37))
    assert percentile(values, p) == pytest.approx(np.percentile(values, p))


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (72, 75.0),
        (100, 90.0), (144, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_rule_on_real_samples():
    """At the chosen level at least ten samples lie above the percentile."""
    for n in (20, 55, 150, 1234):
        values = list(np.random.default_rng(n).permutation(n).astype(float))
        p = tail_percentile(n)
        assert sum(v > percentile(values, p) for v in values) >= 10


# ------------------------------------------------------------------ throughput


def test_throughput_sums_one_round_of_unit_kinds_at_their_medians():
    iterations = [
        Iteration([(3.0, 0.5)], [("a", 10, 1.0, 0.5), ("b", 30, 2.0, 1.0)], None),
        Iteration([(5.0, 1.0)], [("a", 10, 4.0, 1.0), ("b", 30, 1.0, 1.0)], None),
        Iteration([(4.0, 2.0)], [("a", 10, 2.0, 1.0), ("b", 30, 6.0, 2.0)], None),
    ]
    # seconds: medians a=2, b=2; normalised: a=[2, 4, 2] -> 2, b=[2, 1, 3] -> 2
    assert throughput(iterations, normalise=False) == 40 / 4
    assert throughput(iterations, normalise=True) == 40 / 4
    iterations[0].units[0] = ("a", 10, 1.0, 0.25)  # normalised a = [4, 4, 2] -> 4
    assert throughput(iterations, normalise=True) == 40 / 6
    assert [it.wall_ref for it in iterations] == [6.0, 5.0, 2.0]


# ------------------------------------------------------------------ routing


def test_nearest_branch_ties_go_to_the_longer_branch():
    lengths = {"S": 2, "M": 6, "L": 8}
    assert [nearest_branch(h, lengths) for h in range(1, 12)] == [
        "S", "S", "S", "M", "M", "M", "L", "L", "L", "L", "L",
    ]


def test_expected_routing_for_the_sweep_is_2_3_2_per_scene():
    counts = expected_routing(range(2, 9), {"S": 2, "M": 6, "L": 8}, scenes=316)
    assert counts == {"S": 632, "M": 948, "L": 632}


def test_nearest_branch_agrees_with_the_program_router():
    from flexilen.fln import route

    rng = np.random.default_rng(1)
    for _ in range(200):
        short, medium, long = sorted(rng.choice(np.arange(1, 16), size=3, replace=False))
        lengths = {"S": int(short), "M": int(medium), "L": int(long)}
        for h in range(1, 20):
            assert nearest_branch(h, lengths) == route(h, lengths)


def test_encoder_sites_cover_every_layer_and_the_final_norm():
    from flexilen.backbone import ln_sites
    from flexilen.config import BackboneConfig

    for layers in (1, 3):
        program = {s for s in ln_sites(BackboneConfig(layers=layers)) if s.startswith("enc.")}
        assert encoder_sites(layers) == program


# ------------------------------------------------------------------ tracer


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def caller(x):
        return inner.leaf(x) * 2

    inner.leaf = leaf
    outer.leaf_alias = leaf  # a ``from .inner import leaf`` style binding
    outer.caller = caller
    modules = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(modules)
    yield inner, outer
    for name in modules:
        sys.modules.pop(name)


def test_tracer_rebinds_every_alias_records_nesting_and_restores(fake_package):
    inner, outer = fake_package
    original = inner.leaf
    tracer = Tracer("fakepkg")
    seen = []
    targets = [
        (inner, "leaf", "inner.leaf", None, lambda t, a, k, r: seen.append(r)),
        (outer, "caller", "outer.caller", lambda t, a, k: t.count("calls"), None),
    ]
    with tracer.tracing(targets, run=3):
        assert outer.leaf_alias is inner.leaf is not original
        assert outer.caller(1) == 4
        assert outer.leaf_alias(5) == 6
    assert inner.leaf is original and outer.leaf_alias is original
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [
        ("outer.caller", -1, 3),
        ("inner.leaf", 0, 3),
        (HOOK, 0, 3),
        ("inner.leaf", -1, 3),
        (HOOK, -1, 3),
    ]
    assert seen == [2, 6]
    assert tracer.counted("calls", [3]) == 1


def test_tracer_wraps_methods_on_the_class(fake_package):
    class Scaler:
        def apply(self, x):
            return 3 * x

    original = Scaler.__dict__["apply"]
    tracer = Tracer("fakepkg")
    with tracer.tracing([(Scaler, "apply", "scaler.apply", None, None)], run=0):
        assert Scaler().apply(2) == 6
    assert Scaler.__dict__["apply"] is original
    assert [s[0] for s in tracer.spans] == ["scaler.apply"]


def test_tracer_records_the_span_when_the_call_raises(fake_package):
    inner, _ = fake_package
    inner.leaf = lambda x: 1 / x
    tracer = Tracer("fakepkg")
    with tracer.tracing([(inner, "leaf", "inner.leaf", None, None)], run=0):
        with pytest.raises(ZeroDivisionError):
            inner.leaf(0)
    assert len(tracer.spans) == 1 and tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer._stack == []
