"""Training loops for the multi-branch model and the conventional baselines.

Strategies:
  fln       one-time training over all three lengths with distillation
  isolated  one model per single observation length
  mixed     one model, per-iteration length sampled from probabilities
  finetune  train at the long length, then adapt to a target length
  joint     dataset expanded with every length, one model per eval length

All five run through one loop, ``_epochs``, over the normalized ``Window``
stacks of ``prepare_scenes``, one per (agent count, steps) group: each batch
is a shuffled row slice of one stack, with one loss, one backward and one
Adam step; after each pass it appends an EpochRecord to the run's TrainLog,
calls the epoch hook and asks the ``stop`` rule, both optional. A strategy
chooses its stacks, the per-batch loss and the number of passes; finetune
runs the loop twice on one model, log, optimizer and shuffle stream and
stops the second run on its validation plateau; joint cuts every stack to
each of its lengths and runs the loop once per model, with the hook its
``epoch_hook`` factory returns for that model.

Each strategy builds its ``ValSet`` once per run: the first VAL_SCENE_CAP
val scenes by id, stacked by agent count and length and normalized one
stack per call, like the training stacks (``prepare_scenes``).
Per-epoch validation (``_val_metrics``) then runs
``evaluation.evaluate_groups``, one forward per group and length, and gives
the same ADE/FDE, bit for bit, as one forward per scene, as long as the BLAS
computes each GEMM row the same whatever the number of rows.
``evaluation.evaluate``, which ``eval`` and ``sweep`` use, scores through the
same core, one group at a time; only a multi-branch model keeps one forward
per scene there, joined per group before scoring, since the benchmark's
traced ``eval_sweep`` run checks routing by counting one routed call per
scene.

Every fixed-length run (fln, isolated, mixed, joint, and finetune's
long-length phase) anneals the learning rate to zero with a half-cosine,
lr * 0.5 * (1 + cos(pi * step / total_steps)), where total_steps is epochs
times the batches per epoch (the same every epoch), so that the returned iterate
has settled: on low-noise data the NLL drives the predicted scales to their
floor, and constant-rate Adam then jitters the means by more than a scale.
Finetune's adaptation phase runs until its validation plateau rule stops it,
so it has no fixed length and keeps the constant rate.

All strategies are bit-reproducible under a fixed seed in single-threaded
execution; random draws come from named streams so that degenerate settings
reduce exactly to their baselines (mixed with rho=(0,0,1) consumes its
length-draw stream without disturbing batch shuffling).
"""
from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backbone as bb
from .autodiff import Tensor, backward, zero_grad
from .backbone import FlnParams
from .config import RunConfig
from .data import DatasetSplit, Normalizer, TrajectoryScene, stack_by_shape
from .evaluation import SceneGroup, evaluate_groups, group_scenes
from .fln import fln_loss
from .mixture import nll

VAL_SCENE_CAP = 64  # per-epoch validation subset (deterministic prefix by id)

# named rng stream ids (hashed together with the run seed); parameter init
# namespaces itself with a trailing 0 inside init_params
STREAM_SHUFFLE = 1
STREAM_LENGTH = 2


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """First/second-moment update with bias correction; grad-less parameters
    are left untouched."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, tensor in params.items():
        grad = tensor.grad
        if grad is None:
            continue
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - beta1) * grad if m is None else beta1 * m + (1.0 - beta1) * grad
        v = (1.0 - beta2) * grad * grad if v is None else beta2 * v + (1.0 - beta2) * grad * grad
        state.m[name] = m
        state.v[name] = v
        tensor.data = tensor.data - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def cosine_lr(lr: float, step: int, total_steps: int) -> float:
    """Half-cosine annealing from ``lr`` at step 0 towards 0 at ``total_steps``."""
    return lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


# ------------------------------------------------------------------ batching


@dataclass
class Window:
    """A stack of normalized windows with equal agent count and length: a
    ``prepare_scenes`` group, or a batch of its rows."""

    obs: np.ndarray     # (B, N, steps, 2) normalized histories
    future: np.ndarray  # (B, N, T, 2) normalized futures


def prepare_scenes(
    scenes: list[TrajectoryScene], normalizer: Normalizer, h_max: int
) -> list[Window]:
    """One stack per (agent count, steps) group of ``scenes``, in sorted
    group order with rows in scene-id order, each normalized in one call.
    ``h_max`` is the longest window the run trains at; the first scene by
    id with fewer observed steps is rejected, as ``evaluation`` rejects it."""
    ordered = sorted(scenes, key=lambda s: s.scene_id)
    stacks = [
        Window(*normalizer.transform(positions, ordered[index[0]].scene_id)[:2])
        for index, positions in stack_by_shape(ordered)
    ]
    for scene in ordered:
        observed = scene.n_steps - normalizer.horizon
        if observed < h_max:
            raise ValueError(
                f"scene {scene.scene_id} has only {observed} observed steps (< {h_max})"
            )
    return stacks


def _make_batches(
    stacks: list[Window], batch_size: int, rng: np.random.Generator
) -> list[Window]:
    """Shuffled batches of up to ``batch_size`` rows of one stack, so the
    attention core stays mask-free: one permutation of each stack's rows,
    cut into consecutive slices, then one permutation of all batches."""
    batches: list[Window] = []
    for stack in stacks:
        order = rng.permutation(len(stack.obs))
        for start in range(0, len(order), batch_size):
            rows = order[start : start + batch_size]
            batches.append(Window(stack.obs[rows], stack.future[rows]))
    final_order = rng.permutation(len(batches))
    return [batches[i] for i in final_order]


# ------------------------------------------------------------------- logging


@dataclass
class EpochRecord:
    epoch: int
    total: float
    reg: float
    kl: float
    seconds: float      # the whole epoch, validation included
    val_seconds: float  # validation alone
    val: dict[int, tuple[float, float]] = field(default_factory=dict)


@dataclass
class TrainLog:
    strategy: str
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        lengths = sorted({h for record in self.records for h in record.val})
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            header = ["epoch", "total", "reg", "kl", "seconds", "val_seconds"]
            for h in lengths:
                header += [f"val_ade@{h}", f"val_fde@{h}"]
            writer.writerow(header)
            for record in self.records:
                row = [
                    record.epoch,
                    f"{record.total:.12g}",
                    f"{record.reg:.12g}",
                    f"{record.kl:.12g}",
                    f"{record.seconds:.3f}",
                    f"{record.val_seconds:.3f}",
                ]
                for h in lengths:
                    ade_fde = record.val.get(h)
                    row += [f"{ade_fde[0]:.9f}", f"{ade_fde[1]:.9f}"] if ade_fde else ["", ""]
                writer.writerow(row)

    def summary(self) -> dict:
        last = self.records[-1] if self.records else None
        return {
            "strategy": self.strategy,
            "epochs": len(self.records),
            "final_total": last.total if last else None,
            "final_reg": last.reg if last else None,
            "final_kl": last.kl if last else None,
            "final_val": {str(h): list(v) for h, v in (last.val.items() if last else [])},
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2, sort_keys=True), encoding="utf-8")


# ------------------------------------------------------------ shared helpers


@dataclass
class ValSet:
    """A run's per-epoch validation scenes: the first ``VAL_SCENE_CAP`` val
    scenes by id, normalized and grouped by agent count and length once, and
    the ``k`` mode means each agent is scored with."""

    groups: list[SceneGroup]
    k: int
    normalizer: Normalizer


def val_set(split: DatasetSplit, normalizer: Normalizer, cfg: RunConfig) -> ValSet:
    subset = sorted(split.val, key=lambda s: s.scene_id)[:VAL_SCENE_CAP]
    # validation always draws mode means, whatever cfg.eval.sampling is, so
    # it can take at most one sample per mode
    k = min(cfg.eval.samples, cfg.backbone.modes)
    return ValSet(group_scenes(subset, normalizer), k, normalizer)


def _val_metrics(
    params: FlnParams, val: ValSet, lengths: list[int]
) -> dict[int, tuple[float, float]]:
    """(ADE, FDE) at each length, one forward per group; ``{}`` for an empty
    val split."""
    if not val.groups:
        return {}
    return {h: evaluate_groups(params, val.groups, h, val.k, val.normalizer) for h in lengths}


def _stream(seed: int | tuple, stream: int) -> np.random.Generator:
    return np.random.default_rng([*((seed,) if isinstance(seed, int) else seed), stream])


# ------------------------------------------------------------------ the loop


def _epochs(
    log: TrainLog,
    params: FlnParams,
    stacks: list[Window],
    loss_fn,
    validate,
    cfg: RunConfig,
    state: AdamState,
    shuffle_rng: np.random.Generator,
    epochs: int,
    anneal: bool = True,
    epoch_hook=None,
    stop=None,
) -> TrainLog:
    """The training loop of every strategy: up to ``epochs`` shuffled passes
    over the rows of ``stacks`` with one Adam step per batch.

    ``loss_fn(batch) -> (total, reg, kl)`` is the only per-strategy part;
    ``total`` is minimized and ``kl`` is None for single-model losses. Each
    pass appends an EpochRecord, with ``validate(params)`` as its val
    metrics and that call's time as its ``val_seconds``, to ``log``,
    numbered on from the records already there; then
    ``epoch_hook(params, epoch)`` runs, and the loop ends early once
    ``stop(record)`` is true. With ``anneal`` the rate follows the
    half-cosine over this call's ``epochs`` passes, else it stays constant.
    Returns ``log``."""
    step = 0
    for epoch in range(len(log.records), len(log.records) + epochs):
        started = time.perf_counter()
        sums = [0.0, 0.0, 0.0]
        batches = _make_batches(stacks, cfg.train.batch_size, shuffle_rng)
        total_steps = epochs * len(batches)
        for batch in batches:
            total, reg, kl = loss_fn(batch)
            zero_grad(params.tensors)
            backward(total)
            lr = cosine_lr(cfg.train.lr, step, total_steps) if anneal else cfg.train.lr
            adam_step(params.tensors, state, lr)
            step += 1
            sums[0] += total.item()
            sums[1] += reg.item()
            if kl is not None:
                sums[2] += kl.item()
        val_started = time.perf_counter()
        val = validate(params)
        ended = time.perf_counter()
        n = len(batches)
        record = EpochRecord(
            epoch, sums[0] / n, sums[1] / n, sums[2] / n, ended - started, ended - val_started, val
        )
        log.records.append(record)
        if epoch_hook is not None:
            epoch_hook(params, epoch)
        if stop is not None and stop(record):
            break
    return log


def _single_loss(params: FlnParams, length_of):
    """Single-model NLL on the last ``length_of(batch)`` observed steps."""

    def loss_fn(batch: Window):
        h = length_of(batch)
        loss = nll(bb.forward_single(batch.obs[:, :, -h:, :], params), batch.future)
        return loss, loss, None

    return loss_fn


# ---------------------------------------------------------------- strategies


def train_fln(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer | None = None,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """One-time training of all three branches with the combined loss.

    ``epoch_hook(params, epoch)`` runs after every completed epoch (the CLI
    uses it for atomic per-epoch checkpoints)."""
    branches = cfg.branches
    normalizer = normalizer or Normalizer(cfg.data.horizon).fit(split.train)
    val = val_set(split, normalizer, cfg)
    params = bb.init_params(
        cfg.backbone,
        branches.lengths,
        cfg.seed,
        weight_sharing=branches.weight_sharing,
        independent_pe=branches.independent_pe,
        specialized_ln=branches.specialized_ln,
    )
    return params, _epochs(
        TrainLog("fln"), params, prepare_scenes(split.train, normalizer, branches.h_long),
        lambda batch: fln_loss(batch.obs, batch.future, params, branches),
        lambda p: _val_metrics(p, val, list(branches.lengths.values())),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        epoch_hook=epoch_hook,
    )


def train_isolated(
    split: DatasetSplit,
    cfg: RunConfig,
    h_train: int,
    normalizer: Normalizer | None = None,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """Conventional training at a single observation length."""
    normalizer = normalizer or Normalizer(cfg.data.horizon).fit(split.train)
    val = val_set(split, normalizer, cfg)
    params = bb.init_params(cfg.backbone, {"L": h_train}, cfg.seed)
    return params, _epochs(
        TrainLog("isolated"), params, prepare_scenes(split.train, normalizer, h_train),
        _single_loss(params, lambda batch: h_train),
        lambda p: _val_metrics(p, val, [h_train]),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        epoch_hook=epoch_hook,
    )


def train_mixed(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer | None = None,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """One model; each iteration trains at a length drawn from the
    (renormalized) probabilities rho."""
    normalizer = normalizer or Normalizer(cfg.data.horizon).fit(split.train)
    val = val_set(split, normalizer, cfg)
    h_long = cfg.branches.h_long
    params = bb.init_params(cfg.backbone, {"L": h_long}, cfg.seed)
    candidates = [cfg.branches.h_short, cfg.branches.h_medium, h_long]
    probs = np.asarray((cfg.train.rho_short, cfg.train.rho_medium, cfg.train.rho_long))
    probs = probs / probs.sum()
    length_rng = _stream(cfg.seed, STREAM_LENGTH)
    return params, _epochs(
        TrainLog("mixed"), params, prepare_scenes(split.train, normalizer, h_long),
        _single_loss(params, lambda batch: candidates[int(length_rng.choice(3, p=probs))]),
        lambda p: _val_metrics(p, val, [h_long]),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        epoch_hook=epoch_hook,
    )


def train_finetune(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer | None = None,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog, FlnParams]:
    """Train at the long length, then continue at the target length until the
    validation ADE plateaus; the pre-finetune checkpoint is preserved.

    Both phases share one model, log, optimizer state and shuffle stream, and
    number their epochs in one sequence (the log's and ``epoch_hook``'s)."""
    normalizer = normalizer or Normalizer(cfg.data.horizon).fit(split.train)
    val = val_set(split, normalizer, cfg)
    h_long, target = cfg.branches.h_long, cfg.train.finetune_target
    stacks = prepare_scenes(split.train, normalizer, h_long)
    params = bb.init_params(cfg.backbone, {"L": h_long}, cfg.seed)
    state, shuffle_rng = AdamState(), _stream(cfg.seed, STREAM_SHUFFLE)
    log = _epochs(
        TrainLog("finetune"), params, stacks, _single_loss(params, lambda batch: h_long),
        lambda p: _val_metrics(p, val, [h_long]),
        cfg, state, shuffle_rng, cfg.train.epochs, epoch_hook=epoch_hook,
    )
    pre = copy.deepcopy(params)
    best, stale = np.inf, 0

    def plateau(record: EpochRecord) -> bool:
        nonlocal best, stale
        current = record.val.get(target, (np.inf,))[0]
        if current < best - 1e-12:
            best, stale = current, 0
        else:
            stale += 1
        return stale >= cfg.train.finetune_patience

    _epochs(
        log, params, stacks, _single_loss(params, lambda batch: target),
        lambda p: _val_metrics(p, val, [target]),
        cfg, state, shuffle_rng, cfg.train.finetune_max_epochs,
        anneal=False, epoch_hook=epoch_hook, stop=plateau,
    )
    return params, log, pre


def train_joint(
    split: DatasetSplit, cfg: RunConfig, normalizer: Normalizer | None = None, epoch_hook=None
) -> dict[int, tuple[FlnParams, TrainLog]]:
    """Expand the training set with every length, each stack cut to its last
    h steps for each length h; train one model per evaluation length on it.
    ``epoch_hook(h_eval)`` returns the epoch hook of that length's model."""
    normalizer = normalizer or Normalizer(cfg.data.horizon).fit(split.train)
    val = val_set(split, normalizer, cfg)
    lengths = [cfg.branches.h_short, cfg.branches.h_medium, cfg.branches.h_long]
    stacks = [
        Window(stack.obs[..., -h:, :], stack.future)
        for stack in prepare_scenes(split.train, normalizer, max(lengths))
        for h in lengths
    ]
    out: dict[int, tuple[FlnParams, TrainLog]] = {}
    for index, h_eval in enumerate(lengths):
        seed = (cfg.seed, 7, index)
        params = bb.init_params(cfg.backbone, {"L": cfg.branches.h_long}, seed)
        log = _epochs(
            TrainLog("joint"), params, stacks, _single_loss(params, lambda batch: batch.obs.shape[-2]),
            lambda p: _val_metrics(p, val, [h_eval]),
            cfg, AdamState(), _stream(seed, STREAM_SHUFFLE), cfg.train.epochs,
            epoch_hook=None if epoch_hook is None else epoch_hook(h_eval),
        )
        out[h_eval] = (params, log)
    return out
