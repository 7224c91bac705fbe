"""Training loops for the multi-branch model and the conventional baselines.

Strategies:
  fln       one-time training over all three lengths with distillation
  isolated  one model per single observation length
  mixed     one model, per-iteration length sampled from probabilities
  finetune  train at the long length, then adapt to a target length
  joint     dataset expanded with every length, one model per eval length

All five run through one loop, ``_epochs``, over the ``data.SceneGroup``s
of ``prepare_scenes``, one per (agent count, steps) group: each batch is a
shuffled ``(obs, future)`` row slice of one group, with one loss, one
backward and one Adam step; after each pass it appends an EpochRecord to the
run's TrainLog, calls the epoch hook and asks the ``stop`` rule, both
optional. A strategy chooses its groups, the per-batch loss and the number
of passes; finetune runs the loop twice on one model, log, optimizer and
shuffle stream and stops the second run on its validation plateau; joint
cuts every group to each of its lengths and runs the loop once per model,
with the hook its ``epoch_hook`` factory returns for that model. Every
strategy takes the normalizer its caller fitted on the training split.

Each strategy builds its ``ValSet`` once per run: the first VAL_SCENE_CAP
val scenes by id, grouped by ``data.group_scenes`` like the training groups.
Per-epoch validation (``_val_metrics``) then runs
``evaluation.evaluate_groups``, one forward per group and length, and gives
the same ADE/FDE, bit for bit, as one forward per scene, as long as the BLAS
computes each GEMM row the same whatever the number of rows.
``evaluation.generality_sweep``, which ``sweep`` uses (``eval`` uses
``evaluation.evaluate``, the sweep at one length), scores through the same
core, one group at a time, and groups the scenes once for all its lengths;
only a multi-branch model keeps one forward per scene there, joined per
group before scoring, since the benchmark's traced ``eval_sweep`` run checks
routing by counting one routed call per scene.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import backbone as bb
from .autodiff import Tensor, backward, zero_grad
from .backbone import FlnParams
from .config import RunConfig
from .data import DatasetSplit, Normalizer, SceneGroup, TrajectoryScene, group_scenes, windows
from .evaluation import evaluate_groups
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
    are left untouched and get no moment slots.

    One flat update over the concatenated gradients, moments and values of
    every parameter with a gradient, element for element the per-tensor
    arithmetic; each tensor's value and its ``state.m``/``state.v`` slots
    are then views of their segment of the flat results."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    named = [(name, tensor) for name, tensor in params.items() if tensor.grad is not None]
    if not named:
        return
    grad = np.concatenate([tensor.grad.reshape(-1) for _, tensor in named])
    m = _moment(state.m, named, beta1, (1.0 - beta1) * grad)
    v = _moment(state.v, named, beta2, (1.0 - beta2) * grad * grad)
    data = np.concatenate([tensor.data.reshape(-1) for _, tensor in named])
    data = data - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
    offset = 0
    for name, tensor in named:
        shape, stop = tensor.data.shape, offset + tensor.data.size
        tensor.data = data[offset:stop].reshape(shape)
        state.m[name] = m[offset:stop].reshape(shape)
        state.v[name] = v[offset:stop].reshape(shape)
        offset = stop


def _moment(slots: dict[str, np.ndarray], named, beta: float, fresh: np.ndarray) -> np.ndarray:
    """``beta * slot + fresh`` over the flat segments of ``named``, or
    ``fresh`` alone in the segment of a tensor that has no slot yet."""
    old = [slots.get(name) for name, _ in named]
    if all(slot is not None for slot in old):
        return beta * np.concatenate([slot.reshape(-1) for slot in old]) + fresh
    out = fresh.copy()
    offset = 0
    for slot, (_, tensor) in zip(old, named):
        stop = offset + tensor.data.size
        if slot is not None:
            out[offset:stop] = beta * slot.reshape(-1) + fresh[offset:stop]
        offset = stop
    return out


def cosine_lr(lr: float, step: int, total_steps: int) -> float:
    """Half-cosine annealing from ``lr`` at step 0 towards 0 at ``total_steps``."""
    return lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


# ------------------------------------------------------------------ batching


def prepare_scenes(
    scenes: list[TrajectoryScene], normalizer: Normalizer, h_max: int
) -> list[SceneGroup]:
    """The training groups of ``scenes`` (``data.group_scenes``). ``h_max``
    is the longest window the run trains at; the first scene by id with
    fewer observed steps is rejected by ``data.windows``."""
    groups = group_scenes(scenes, normalizer)
    windows(groups, h_max)
    return groups


def _make_batches(
    groups: list[SceneGroup], batch_size: int, rng: np.random.Generator
) -> list[tuple[SceneGroup, np.ndarray]]:
    """Shuffled ``(group, rows)`` batches of up to ``batch_size`` rows of one
    group, so the attention core stays mask-free: one permutation of each
    group's rows, cut into consecutive slices, then one permutation of all
    batches. A batch holds row indices, not rows: ``_epochs`` copies each
    batch's ``obs`` and ``future`` rows only when it runs the batch."""
    batches = []
    for group in groups:
        order = rng.permutation(len(group.obs))
        for start in range(0, len(order), batch_size):
            batches.append((group, order[start : start + batch_size]))
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
    scenes by id, grouped once, and the ``k`` mode means each agent is
    scored with."""

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
    groups: list[SceneGroup],
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
    over the rows of ``groups`` with one Adam step per batch.

    ``loss_fn(obs, future) -> (total, reg, kl)`` is the only per-strategy part;
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
        batches = _make_batches(groups, cfg.train.batch_size, shuffle_rng)
        total_steps = epochs * len(batches)
        for group, rows in batches:
            total, reg, kl = loss_fn(group.obs[rows], group.future[rows])
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
    """Single-model NLL on the last ``length_of(obs)`` observed steps."""

    def loss_fn(obs: np.ndarray, future: np.ndarray):
        h = length_of(obs)
        loss = nll(bb.forward_single(obs[:, :, -h:, :], params), future)
        return loss, loss, None

    return loss_fn


# ---------------------------------------------------------------- strategies


def train_fln(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """One-time training of all three branches with the combined loss.

    ``epoch_hook(params, epoch)`` runs after every completed epoch (the CLI
    uses it for atomic per-epoch checkpoints)."""
    branches = cfg.branches
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
        lambda obs, future: fln_loss(obs, future, params, branches),
        lambda p: _val_metrics(p, val, list(branches.lengths.values())),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        epoch_hook=epoch_hook,
    )


def train_isolated(
    split: DatasetSplit,
    cfg: RunConfig,
    h_train: int,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """Conventional training at a single observation length."""
    val = val_set(split, normalizer, cfg)
    params = bb.init_params(cfg.backbone, {"L": h_train}, cfg.seed)
    return params, _epochs(
        TrainLog("isolated"), params, prepare_scenes(split.train, normalizer, h_train),
        _single_loss(params, lambda obs: h_train),
        lambda p: _val_metrics(p, val, [h_train]),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        epoch_hook=epoch_hook,
    )


def train_mixed(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """One model; each iteration trains at a length drawn from the
    (renormalized) probabilities rho."""
    val = val_set(split, normalizer, cfg)
    h_long = cfg.branches.h_long
    params = bb.init_params(cfg.backbone, {"L": h_long}, cfg.seed)
    candidates = [cfg.branches.h_short, cfg.branches.h_medium, h_long]
    probs = np.asarray((cfg.train.rho_short, cfg.train.rho_medium, cfg.train.rho_long))
    probs = probs / probs.sum()
    length_rng = _stream(cfg.seed, STREAM_LENGTH)
    return params, _epochs(
        TrainLog("mixed"), params, prepare_scenes(split.train, normalizer, h_long),
        _single_loss(params, lambda obs: candidates[int(length_rng.choice(3, p=probs))]),
        lambda p: _val_metrics(p, val, [h_long]),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        epoch_hook=epoch_hook,
    )


def train_finetune(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog, FlnParams]:
    """Train at the long length, then continue at the target length until the
    validation ADE plateaus; the pre-finetune checkpoint is preserved.

    Both phases share one model, log, optimizer state and shuffle stream, and
    number their epochs in one sequence (the log's and ``epoch_hook``'s)."""
    val = val_set(split, normalizer, cfg)
    h_long, target = cfg.branches.h_long, cfg.train.finetune_target
    groups = prepare_scenes(split.train, normalizer, h_long)
    params = bb.init_params(cfg.backbone, {"L": h_long}, cfg.seed)
    state, shuffle_rng = AdamState(), _stream(cfg.seed, STREAM_SHUFFLE)
    log = _epochs(
        TrainLog("finetune"), params, groups, _single_loss(params, lambda obs: h_long),
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
        log, params, groups, _single_loss(params, lambda obs: target),
        lambda p: _val_metrics(p, val, [target]),
        cfg, state, shuffle_rng, cfg.train.finetune_max_epochs,
        anneal=False, epoch_hook=epoch_hook, stop=plateau,
    )
    return params, log, pre


def train_joint(
    split: DatasetSplit, cfg: RunConfig, normalizer: Normalizer, epoch_hook=None
) -> dict[int, tuple[FlnParams, TrainLog]]:
    """Expand the training set with every length, each stack cut to its last
    h steps for each length h; train one model per evaluation length on it.
    ``epoch_hook(h_eval)`` returns the epoch hook of that length's model."""
    val = val_set(split, normalizer, cfg)
    lengths = [cfg.branches.h_short, cfg.branches.h_medium, cfg.branches.h_long]
    groups = [
        replace(group, obs=group.obs[..., -h:, :])
        for group in prepare_scenes(split.train, normalizer, max(lengths))
        for h in lengths
    ]
    out: dict[int, tuple[FlnParams, TrainLog]] = {}
    for index, h_eval in enumerate(lengths):
        seed = (cfg.seed, 7, index)
        params = bb.init_params(cfg.backbone, {"L": cfg.branches.h_long}, seed)
        log = _epochs(
            TrainLog("joint"), params, groups, _single_loss(params, lambda obs: obs.shape[-2]),
            lambda p: _val_metrics(p, val, [h_eval]),
            cfg, AdamState(), _stream(seed, STREAM_SHUFFLE), cfg.train.epochs,
            epoch_hook=None if epoch_hook is None else epoch_hook(h_eval),
        )
        out[h_eval] = (params, log)
    return out
