"""Set-up, the three workloads, and the checks on every output they make.

Every workload drives the program only through ``flexilen.cli.main`` with
the pinned study protocol (``study_run_config(n_scenes=2000)``, three epochs
per training command) on a dataset that set-up generates from the workload
seed. Load is closed-loop: one caller, one command at a time.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import reference_seconds

N_SCENES = 2000
EPOCHS = 3
BRANCH_LENGTHS = {"S": 2, "M": 6, "L": 8}
SWEEP_LENGTHS = list(range(2, 9))
PROBE_LENGTH = 2


def nearest_branch(h: int, branch_lengths: dict[str, int]) -> str:
    """Branch with the training length nearest ``h``; a tie keeps the longer
    one. Written independently of the program's router: scan from the
    longest branch and replace only on a strictly smaller distance."""
    best = None
    for branch, length in sorted(branch_lengths.items(), key=lambda item: -item[1]):
        if best is None or abs(h - length) < abs(h - branch_lengths[best]):
            best = branch
    return best


def expected_routing(lengths, branch_lengths: dict[str, int], scenes: int) -> dict[str, int]:
    """Routed-forward count per branch when every scene is evaluated once at
    each length."""
    counts = {branch: 0 for branch in branch_lengths}
    for h in lengths:
        counts[nearest_branch(h, branch_lengths)] += scenes
    return counts


def encoder_sites(layers: int) -> set[str]:
    sites = {f"enc.l{layer}.norm{k}" for layer in range(layers) for k in (1, 2)}
    return sites | {"enc.final_norm"}


@dataclass
class Facts:
    """What the benchmark knows about the generated dataset."""

    n_train: int
    n_test: int
    cv_ade: float  # constant-velocity extrapolation ADE on the test split, meters


@dataclass
class Iteration:
    """One pass of a workload's command sequence.

    ``commands`` holds each command's wall seconds and the reference-loop
    time measured around it. ``units`` are the finest repeated pieces of
    work timed without tracing, as ``(kind, scene passes, seconds, ref)``:
    each training epoch, from the program's own per-epoch ``seconds``
    column, or each evaluation command."""

    commands: list[tuple[float, float]]
    units: list[tuple[str, int, float, float]]
    signature: object
    traced: bool = False

    @property
    def seconds(self) -> float:
        return sum(seconds for seconds, _ in self.commands)

    @property
    def wall_ref(self) -> float:
        return sum(seconds / ref for seconds, ref in self.commands)


def throughput(iterations, normalise: bool) -> float:
    """Scene passes per unit of time for one round of the workload's units,
    each kind of unit timed at the median of its samples; in reference
    times when ``normalise``, else in seconds."""
    kinds: dict[str, tuple[int, list[float]]] = {}
    for iteration in iterations:
        for kind, passes, seconds, ref in iteration.units:
            kinds.setdefault(kind, (passes, []))[1].append(seconds / ref if normalise else seconds)
    return sum(p for p, _ in kinds.values()) / sum(statistics.median(t) for _, t in kinds.values())


class Bench:
    """Runs CLI commands in-process, times them, and counts operations.

    An operation is one CLI command or one output check; each one that
    fails is counted and described in ``failures``. While ``run`` is not
    None, commands execute with the tracer's wrappers installed, and the
    installing and removing stay outside the timed window.
    """

    def __init__(self, fx, work: Path, seed: int, tracer=None, targets=None):
        self.fx = fx
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.targets = targets
        self.run: int | None = None
        self.ref: float | None = None
        self.timed: tuple[float, float] = (math.nan, math.nan)
        self.attempted = 0
        self.failures: list[str] = []
        self.cfg = fx.protocols.study_run_config(
            n_scenes=N_SCENES, epochs=EPOCHS, lengths=tuple(BRANCH_LENGTHS.values()), seed=seed
        )
        self.config = work / "study.cfg"
        self.data = work / "data"
        flat = fx.config.run_config_to_flat(self.cfg)
        self.config.write_text(
            "".join(f"{key} = {value}\n" for key, value in sorted(flat.items())), encoding="utf-8"
        )

    @property
    def failed(self) -> int:
        return len(self.failures)

    def command(self, *argv) -> float:
        """Run one CLI command; its wall seconds, or NaN when it failed.

        The reference loop is timed before and after, and ``timed`` keeps
        the command's seconds with the mean of the two reference times."""
        argv = [str(arg) for arg in argv]
        self.attempted += 1
        before = self.ref if self.ref is not None else reference_seconds()
        tracing = (
            self.tracer.tracing(self.targets, self.run)
            if self.run is not None
            else contextlib.nullcontext()
        )
        try:
            with tracing, contextlib.redirect_stdout(io.StringIO()):
                started = time.perf_counter()
                code = self.fx.cli.main(argv)
                seconds = time.perf_counter() - started
        except Exception as exc:  # a crash is a failed operation; the run goes on
            code = repr(exc)
        self.ref = reference_seconds()
        if code != 0:
            self.failures.append(f"{' '.join(argv)}: {code}")
            seconds = math.nan
        self.timed = (seconds, (before + self.ref) / 2)
        return seconds

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")

    def generate(self) -> float:
        return self.command(
            "generate", "--config", self.config, "--out", self.data, "--seed", self.seed
        )

    def train(self, out: Path, strategy: str, length: int | None = None) -> float:
        extra = ["--length", length] if length is not None else []
        return self.command(
            "train", "--config", self.config, "--data", self.data, "--out", out,
            "--seed", self.seed, "--strategy", strategy, *extra,
        )

    def sweep(self, checkpoint: Path, out: Path, lengths: str) -> float:
        return self.command(
            "sweep", "--checkpoint", checkpoint, "--data", self.data, "--out", out,
            "--lengths", lengths,
        )

    def facts(self) -> Facts:
        scenes, _ = self.fx.data.load_dataset(self.data)
        split = self.fx.data.split_scenes(scenes, self.cfg.data.train_frac, self.cfg.data.val_frac)
        horizon = self.cfg.data.horizon
        errors = []
        for scene in split.test:
            rollout = self.fx.backbone.cv_rollout(scene.positions[:, :-horizon], horizon)
            errors.append(np.linalg.norm(rollout - scene.positions[:, -horizon:], axis=-1).mean(-1))
        return Facts(len(split.train), len(split.test), float(np.concatenate(errors).mean()))

    # ------------------------------------------------------------- checks

    def check_training(self, out: Path, lengths: list[int]) -> dict:
        """Losses finite, one log row per epoch, validation at every trained
        length, and the checkpoint reloads with the final epoch marker."""
        name = out.name
        with open(out / "checkpoint_log.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        self.check(f"{name}: one log row per epoch", len(rows) == EPOCHS)
        losses = [float(row[key]) for row in rows for key in ("total", "reg", "kl")]
        summary = json.loads((out / "checkpoint_summary.json").read_text(encoding="utf-8"))
        losses.append(summary["final_total"])
        self.check(f"{name}: all losses finite", all(math.isfinite(v) for v in losses))
        self.check(
            f"{name}: validation at the trained lengths",
            sorted(int(h) for h in summary["final_val"]) == sorted(lengths),
        )
        _, manifest, _ = self.fx.checkpoint.load_checkpoint(out / "checkpoint")
        self.check(f"{name}: checkpoint epoch marker", manifest["epoch"] == EPOCHS)
        summary["epoch_seconds"] = [float(row["seconds"]) for row in rows]
        return summary

    def check_sweep(self, out: Path, lengths: list[int], branch_lengths: dict | None) -> list[float]:
        """One row per requested length, each routed as an independent
        nearest-length computation says (``-`` for a single-length model)."""
        rows = json.loads((out / "sweep.json").read_text(encoding="utf-8"))["rows"]
        name = out.name
        self.check(f"{name}: one row per length", [row["h_eval"] for row in rows] == lengths)
        expected = [nearest_branch(h, branch_lengths) if branch_lengths else "-" for h in lengths]
        self.check(f"{name}: routed branches", [row["branch"] for row in rows] == expected)
        ades = [row["ade"] for row in rows]
        self.check(f"{name}: ADE finite", all(math.isfinite(v) and v > 0 for v in ades))
        return ades

    def check_probe(self, out: Path, branches: list[str]) -> list:
        """Every encoder LayerNorm site, one statistic per probed position."""
        sites = encoder_sites(self.cfg.backbone.layers)
        stats = []
        for index, branch in enumerate(branches):
            report = json.loads((out / f"ln_stats_{index}.json").read_text(encoding="utf-8"))
            self.check(f"ln probe {index}: every encoder site", set(report["sites"]) == sites)
            self.check(f"ln probe {index}: branch", report["branch"] == branch)
            self.check(
                f"ln probe {index}: one row per position",
                all(len(s["mean"]) == PROBE_LENGTH for s in report["sites"].values()),
            )
            stats.append(report["sites"])
        return stats


def training_quality(summaries: list[dict]) -> dict[str, float]:
    """Final training loss and last-epoch validation ADE, averaged over the
    workload's trained models and their trained lengths."""
    return {
        "training.final_loss": statistics.fmean(s["final_total"] for s in summaries),
        "training.val_ade_m": statistics.fmean(
            ade_fde[0] for s in summaries for ade_fde in s["final_val"].values()
        ),
    }


# ------------------------------------------------------------------ workloads


class FlnTrain:
    """``train --strategy fln``: the paper's one-time multi-branch training."""

    name = "fln_train"

    def __init__(self, bench: Bench, facts: Facts):
        self.bench, self.facts = bench, facts
        self.out = bench.work / "fln"
        self.summary: dict = {}

    def prepare(self) -> None:
        pass

    def iteration(self) -> Iteration:
        self.bench.train(self.out, "fln")
        seconds, ref = self.bench.timed
        self.summary = self.bench.check_training(self.out, list(BRANCH_LENGTHS.values()))
        signature = (self.summary["final_total"], self.summary["final_val"])
        units = [("epoch", self.facts.n_train, s, ref) for s in self.summary["epoch_seconds"]]
        return Iteration([(seconds, ref)], units, signature)

    def quality(self) -> float:
        lengths = list(BRANCH_LENGTHS.values())
        out = self.bench.work / "fln_test"
        self.bench.sweep(self.out / "checkpoint", out, ",".join(map(str, lengths)))
        return statistics.fmean(self.bench.check_sweep(out, lengths, BRANCH_LENGTHS))

    def summaries(self) -> list[dict]:
        return [self.summary]

    def trace_checks(self, metrics: dict) -> None:
        bench = self.bench
        steps = metrics["training.steps"]
        bench.check("fln_train: one backward per step", metrics["autodiff.backward.calls"] == steps)
        bench.check("fln_train: two KL terms per step", metrics["mixture.kl_distill.calls"] == 2 * steps)
        routed = [metrics[f"fln.routed.{b}"] for b in BRANCH_LENGTHS]
        bench.check("fln_train: validation routes 1:1:1", routed[0] > 0 and len(set(routed)) == 1)


class SingleTrain:
    """``train --strategy isolated --length H`` for H = 2, 6, 8 in turn."""

    name = "single_train"

    def __init__(self, bench: Bench, facts: Facts):
        self.bench, self.facts = bench, facts
        self.by_length: dict[int, dict] = {}

    def out(self, h: int) -> Path:
        return self.bench.work / f"iso{h}"

    def prepare(self) -> None:
        pass

    def iteration(self) -> Iteration:
        commands, units = [], []
        for h in BRANCH_LENGTHS.values():
            self.bench.train(self.out(h), "isolated", h)
            commands.append(self.bench.timed)
            ref = self.bench.timed[1]
            self.by_length[h] = self.bench.check_training(self.out(h), [h])
            units += [(f"epoch@{h}", self.facts.n_train, s, ref) for s in self.by_length[h]["epoch_seconds"]]
        signature = [(s["final_total"], s["final_val"]) for s in self.by_length.values()]
        return Iteration(commands, units, signature)

    def quality(self) -> float:
        ades = []
        for h in BRANCH_LENGTHS.values():
            out = self.bench.work / f"iso{h}_test"
            self.bench.sweep(self.out(h) / "checkpoint", out, str(h))
            ades += self.bench.check_sweep(out, [h], None)
        return statistics.fmean(ades)

    def summaries(self) -> list[dict]:
        return list(self.by_length.values())

    def trace_checks(self, metrics: dict) -> None:
        bench = self.bench
        bench.check(
            "single_train: one backward per step",
            metrics["autodiff.backward.calls"] == metrics["training.steps"] > 0,
        )
        bench.check("single_train: no KL", metrics["mixture.kl_distill.calls"] == 0)
        bench.check(
            "single_train: nothing routed",
            all(metrics[f"fln.routed.{b}"] == 0 for b in BRANCH_LENGTHS),
        )


class EvalSweep:
    """``sweep --lengths 2..8`` on an FLN and on the H=8 isolated (prototype)
    checkpoint, then ``probe ln`` on both; both are trained during set-up."""

    name = "eval_sweep"

    def __init__(self, bench: Bench, facts: Facts):
        self.bench, self.facts = bench, facts
        self.fln = bench.work / "fln"
        self.proto = bench.work / "iso8"
        self.summary: dict = {}
        self.fln_ades: list[float] = []

    def prepare(self) -> None:
        self.bench.train(self.fln, "fln")
        self.summary = self.bench.check_training(self.fln, list(BRANCH_LENGTHS.values()))
        self.bench.train(self.proto, "isolated", BRANCH_LENGTHS["L"])
        self.bench.check_training(self.proto, [BRANCH_LENGTHS["L"]])

    def iteration(self) -> Iteration:
        bench, work = self.bench, self.bench.work
        spec = f"{SWEEP_LENGTHS[0]}..{SWEEP_LENGTHS[-1]}"
        n_sweep = self.facts.n_test * len(SWEEP_LENGTHS)
        units = []
        bench.sweep(self.fln / "checkpoint", work / "sweep_fln", spec)
        units.append(("sweep_fln", n_sweep, *bench.timed))
        bench.sweep(self.proto / "checkpoint", work / "sweep_proto", spec)
        units.append(("sweep_proto", n_sweep, *bench.timed))
        bench.command(
            "probe", "ln", "--data", bench.data, "--out", work / "probe",
            "--length", PROBE_LENGTH,
            "--checkpoint", self.fln / "checkpoint", "--checkpoint", self.proto / "checkpoint",
        )
        units.append(("probe", 2 * self.facts.n_test, *bench.timed))
        self.fln_ades = bench.check_sweep(work / "sweep_fln", SWEEP_LENGTHS, BRANCH_LENGTHS)
        proto_ades = bench.check_sweep(work / "sweep_proto", SWEEP_LENGTHS, None)
        probe = bench.check_probe(work / "probe", [nearest_branch(PROBE_LENGTH, BRANCH_LENGTHS), "-"])
        commands = [(seconds, ref) for _, _, seconds, ref in units]
        return Iteration(commands, units, (self.fln_ades, proto_ades, probe))

    def quality(self) -> float:
        return statistics.fmean(self.fln_ades)

    def summaries(self) -> list[dict]:
        return [self.summary]

    def trace_checks(self, metrics: dict) -> None:
        bench = self.bench
        bench.check("eval_sweep: no backward", metrics["autodiff.backward.calls"] == 0)
        bench.check("eval_sweep: no KL", metrics["mixture.kl_distill.calls"] == 0)
        expected = expected_routing(SWEEP_LENGTHS, BRANCH_LENGTHS, self.facts.n_test)
        bench.check(
            "eval_sweep: routing counts 2:3:2",
            all(metrics[f"fln.routed.{b}"] == count for b, count in expected.items()),
        )


WORKLOADS = {cls.name: cls for cls in (FlnTrain, SingleTrain, EvalSweep)}
