"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package's modules. Each wrapped function gets one span label;
``forward`` and ``forward_single`` share ``backbone.forward`` (both are one
model forward), and ``specialized_layer_norm`` stands for every LayerNorm
site. Time metrics are per traced iteration, in seconds; counts are per
traced iteration; shares are inclusive time over the time of the
iteration's CLI commands (so they overlap, like any inclusive profile).
"""
from __future__ import annotations

import math
import statistics
from pathlib import Path

from spans import NAME, RUN, duration, has_ancestor, layer_totals, percentile, step_times, tail_percentile

TRAIN_LOOPS = ("training.train_fln", "training.train_isolated")
LOSS_SIDE = ("fln.fln_loss", "backbone.forward", "mixture.nll")
BRANCHES = ("S", "M", "L")


def tape_nodes(loss) -> int:
    """Graph nodes reachable from ``loss`` through recorded parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_tape(tracer, args, kwargs, result) -> None:
    tracer.count("autodiff.tape_nodes", tape_nodes(args[0]))


def _count_tokens(tracer, args, kwargs) -> None:
    shape = args[0].shape
    tracer.count("backbone.tokens", math.prod(shape[:-1]))


def _count_route(tracer, args, kwargs, result) -> None:
    tracer.count(f"fln.routed.{result[1]}")


def _count_eval_scenes(tracer, args, kwargs) -> None:
    tracer.count("evaluation.scenes", len(args[1]))


def _count_bytes(tracer, args, kwargs, result) -> None:
    prefix = str(args[0])
    for suffix in (".json", ".bin"):
        tracer.count("checkpoint.bytes", Path(prefix + suffix).stat().st_size)


def targets(fx) -> list[tuple]:
    """``(owner, attr, label, pre, post)`` for every wrapped function."""
    return [
        (fx.autodiff, "backward", "autodiff.backward", None, _count_tape),
        (fx.backbone, "forward", "backbone.forward", _count_tokens, None),
        (fx.backbone, "forward_single", "backbone.forward", _count_tokens, None),
        (fx.backbone, "spatial_encode", "backbone.spatial_encode", None, None),
        (fx.backbone, "transformer_encode", "backbone.transformer_encode", None, None),
        (fx.backbone, "specialized_layer_norm", "backbone.layer_norm", None, None),
        (fx.backbone, "decode", "backbone.decode", None, None),
        (fx.mixture, "nll", "mixture.nll", None, None),
        (fx.mixture, "kl_distill", "mixture.kl_distill", None, None),
        (fx.mixture, "draw_samples", "mixture.draw_samples", None, None),
        (fx.fln, "fln_loss", "fln.fln_loss", None, None),
        (fx.fln, "forward_routed", "fln.forward_routed", None, _count_route),
        (fx.training, "train_fln", "training.train_fln", None, None),
        (fx.training, "train_isolated", "training.train_isolated", None, None),
        (fx.training, "prepare_scenes", "training.prepare_scenes", None, None),
        (fx.training, "adam_step", "training.adam_step", None, None),
        (fx.evaluation, "evaluate", "evaluation.evaluate", _count_eval_scenes, None),
        (fx.evaluation, "ln_statistics_probe", "evaluation.ln_probe", None, None),
        (fx.data.Normalizer, "transform", "data.transform", None, None),
        (fx.data, "generate_from_config", "data.generate", None, None),
        (fx.data, "load_dataset", "data.load_dataset", None, None),
        (fx.checkpoint, "save_checkpoint", "checkpoint.save", None, _count_bytes),
        (fx.checkpoint, "load_checkpoint", "checkpoint.load", None, None),
        (fx.cli, "main", "cli.command", None, None),
    ]


# per-layer metric name -> (span label, field)
SPAN_METRICS = {
    "autodiff.backward.self_s": ("autodiff.backward", "self_s"),
    "autodiff.backward.calls": ("autodiff.backward", "calls"),
    "backbone.forward.calls": ("backbone.forward", "calls"),
    "backbone.spatial_encode.self_s": ("backbone.spatial_encode", "self_s"),
    "backbone.transformer_encode.self_s": ("backbone.transformer_encode", "self_s"),
    "backbone.layer_norm.self_s": ("backbone.layer_norm", "self_s"),
    "backbone.layer_norm.calls": ("backbone.layer_norm", "calls"),
    "backbone.decode.self_s": ("backbone.decode", "self_s"),
    "mixture.nll.self_s": ("mixture.nll", "self_s"),
    "mixture.kl_distill.self_s": ("mixture.kl_distill", "self_s"),
    "mixture.kl_distill.calls": ("mixture.kl_distill", "calls"),
    "mixture.draw_samples.self_s": ("mixture.draw_samples", "self_s"),
    "mixture.draw_samples.calls": ("mixture.draw_samples", "calls"),
    "fln.fln_loss.self_s": ("fln.fln_loss", "self_s"),
    "fln.forward_routed.self_s": ("fln.forward_routed", "self_s"),
    "fln.forward_routed.calls": ("fln.forward_routed", "calls"),
    "training.adam_step.self_s": ("training.adam_step", "self_s"),
    "training.prepare_scenes.self_s": ("training.prepare_scenes", "self_s"),
    "evaluation.evaluate.self_s": ("evaluation.evaluate", "self_s"),
    "evaluation.evaluate.calls": ("evaluation.evaluate", "calls"),
    "evaluation.ln_probe.self_s": ("evaluation.ln_probe", "self_s"),
    "data.transform.calls": ("data.transform", "calls"),
    "data.transform.self_s": ("data.transform", "self_s"),
    "data.load_dataset.self_s": ("data.load_dataset", "self_s"),
    "checkpoint.save.self_s": ("checkpoint.save", "self_s"),
    "checkpoint.save.calls": ("checkpoint.save", "calls"),
    "checkpoint.load.self_s": ("checkpoint.load", "self_s"),
    "cli.command.self_s": ("cli.command", "self_s"),
}

# inclusive shares of command time, for comparison with an inclusive profile
SHARE_METRICS = {
    "backbone.transformer_encode.share": "backbone.transformer_encode",
    "autodiff.backward.share": "autodiff.backward",
    "backbone.layer_norm.share": "backbone.layer_norm",
    "backbone.decode.share": "backbone.decode",
    "backbone.spatial_encode.share": "backbone.spatial_encode",
    "mixture.kl_distill.share": "mixture.kl_distill",
    "mixture.nll.share": "mixture.nll",
    "training.adam_step.share": "training.adam_step",
    "checkpoint.save.share": "checkpoint.save",
}

PER_LAYER_UNITS = {
    **{name: ("count" if name.endswith(".calls") else "s") for name in SPAN_METRICS},
    **{name: "share" for name in SHARE_METRICS},
    "autodiff.tape_nodes_per_step": "count",
    "backbone.tokens_per_forward": "count",
    **{f"fln.routed.{branch}": "count" for branch in BRANCHES},
    "training.steps": "count",
    "training.step_ms.p50": "ms",
    "training.step_ms.tail": "ms",
    "training.step_ms.tail_pct": "pct",
    "training.val.total_s": "s",
    "training.val_share": "share",
    "training.epoch_s": "s",
    "training.final_loss": "nats",
    "training.val_ade_m": "m",
    "evaluation.scenes_per_forward": "count",
    "data.generate_s": "s",
    "checkpoint.save.bytes_written": "bytes",
    "trace.iterations": "count",
    "trace.hook_s": "s",
    "trace.overhead_share": "share",
}


def per_layer_metrics(tracer, runs: list[int], setup_runs: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of the traced
    iterations ``runs``; ``data.generate_s`` comes from ``setup_runs``.
    Workload-level values (epoch_s, overhead) are added by the caller."""
    n = len(runs)
    spans = tracer.spans
    totals = layer_totals(spans, runs)

    def per_run(label: str, key: str) -> float:
        return totals.get(label, {}).get(key, 0.0) / n

    out = {name: per_run(label, key) for name, (label, key) in SPAN_METRICS.items()}
    command_s = per_run("cli.command", "total_s")
    for name, label in SHARE_METRICS.items():
        out[name] = per_run(label, "total_s") / command_s if command_s else 0.0

    backward_calls = totals.get("autodiff.backward", {}).get("calls", 0)
    out["autodiff.tape_nodes_per_step"] = (
        tracer.counted("autodiff.tape_nodes", runs) / backward_calls if backward_calls else 0.0
    )
    forward_calls = totals.get("backbone.forward", {}).get("calls", 0)
    out["backbone.tokens_per_forward"] = (
        tracer.counted("backbone.tokens", runs) / forward_calls if forward_calls else 0.0
    )
    for branch in BRANCHES:
        out[f"fln.routed.{branch}"] = tracer.counted(f"fln.routed.{branch}", runs) / n

    steps = step_times(spans, runs, TRAIN_LOOPS, LOSS_SIDE, "training.adam_step")
    out["training.steps"] = len(steps) / n
    tail = tail_percentile(len(steps))
    out["training.step_ms.p50"] = 1e3 * statistics.median(steps) if steps else 0.0
    out["training.step_ms.tail"] = 1e3 * percentile(steps, tail) if tail else 0.0
    out["training.step_ms.tail_pct"] = tail or 0.0

    run_set = set(runs)
    val_s = 0.0
    eval_forwards = 0
    for index, span in enumerate(spans):
        if span[RUN] not in run_set:
            continue
        if span[NAME] == "evaluation.evaluate" and has_ancestor(spans, index, TRAIN_LOOPS):
            val_s += duration(span)
        elif span[NAME] == "backbone.forward" and has_ancestor(spans, index, ("evaluation.evaluate",)):
            eval_forwards += 1
    out["training.val.total_s"] = val_s / n
    out["training.val_share"] = val_s / n / command_s if command_s else 0.0
    eval_scenes = tracer.counted("evaluation.scenes", runs)
    out["evaluation.scenes_per_forward"] = eval_scenes / eval_forwards if eval_forwards else 0.0

    out["data.generate_s"] = layer_totals(spans, setup_runs).get("data.generate", {}).get(
        "total_s", 0.0
    ) / max(len(setup_runs), 1)
    out["checkpoint.save.bytes_written"] = tracer.counted("checkpoint.bytes", runs) / n
    out["trace.iterations"] = float(n)
    out["trace.hook_s"] = per_run("trace.hook", "total_s")
    return out
