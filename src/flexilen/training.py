"""Training loops for the multi-branch model and the conventional baselines.

Strategies:
  fln       one-time training over all three lengths with distillation
  isolated  one model per single observation length
  mixed     one model, per-iteration length sampled from probabilities
  finetune  train at the long length, then adapt to a target length
  joint     one model on the dataset expanded with every length

``train`` runs the strategy a run config names and returns its model and
TrainLog; the CLI calls nothing else here. All five strategies run through
one loop, ``_epochs``, over the ``data.AgentTable`` of ``prepare_scenes``;
``_make_batches`` alone decides what a batch holds: the agent rows of
shuffled scenes of one agent count and one number of observed steps, and the
window width the batch is cut to. A strategy names its widths: fln trains at
``[h_long]`` (``fln_loss`` cuts each branch's suffix), isolated at ``[h]``,
joint at ``[h_short, h_medium, h_long]`` (each scene once per width),
finetune at ``[h_long]`` and then at ``[target]``, and mixed draws one width
per batch from its length stream. isolated, mixed and joint then differ in
nothing else: one trainer, ``_train_single``, builds a single-length model at
the longest of their lengths, trains it on one NLL (``_single_loss``) and
validates it at each of those lengths.

Each batch runs one loss, one backward and one Adam step in ``_step``, which
returns the loss terms as floats, so each batch's autodiff graph is freed
before the next batch's forward starts and is never alive during validation
or the epoch hook; after each pass the loop appends an EpochRecord to the
run's TrainLog, calls the epoch hook and asks the ``stop`` rule, both
optional. Finetune runs the loop twice on one model, log, optimizer and
shuffle stream and stops the second run on its validation plateau; the epoch
hook's call at the end of its first run sees the pre-finetune model. Every
strategy trains one model, returns it with its TrainLog and takes the
normalizer its caller fitted on the training split. Only fln has a KL term;
its weight rises linearly from 0 at the first epoch to ``lambda_kl`` at the
last (``_kl_ramp``), and each EpochRecord logs the weight its epoch trained
with.

Each strategy builds its ``ValSet`` once per run: the agent table of the
first VAL_SCENE_CAP val scenes by id. Per-epoch validation
(``_val_metrics``) then runs ``evaluation.evaluate_table``, one forward over
every val agent per length, and gives the same ADE/FDE, bit for bit, as one
forward per scene, as long as the BLAS computes each GEMM row the same
whatever the number of rows and no val scene is a single agent.
``evaluation.generality_sweep``, which ``sweep`` uses (``eval`` uses
``evaluation.evaluate``, the sweep at one length), scores through the same
core and builds its table once for all its lengths; only a multi-branch
model keeps one forward per scene there, joined before scoring, since the
benchmark's traced ``eval_sweep`` run checks routing by counting one routed
call per scene.

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
reduce exactly to their baselines: mixed with all of rho on one length
draws its widths from its own length stream, cuts the batches isolated
cuts at that length, and so trains isolated's weights bit for bit.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import backbone as bb
from .autodiff import Tensor, backward, zero_grad
from .backbone import FlnParams
from .config import RunConfig
from .data import AgentTable, DatasetSplit, Normalizer, TrajectoryScene, agent_table, windows
from .evaluation import evaluate_table
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
    are then views of their segment of the flat results. A tensor's slots
    read zero until its first gradient, so its first moment is
    ``beta * 0 + fresh``: ``fresh``, except that a ``-0.0`` becomes ``0.0``,
    which changes the bits of no weight but a ``-0.0`` one."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    named = [(name, tensor) for name, tensor in params.items() if tensor.grad is not None]
    if not named:
        return

    def flat(slots: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [slots.get(name, np.zeros(tensor.data.size)).reshape(-1) for name, tensor in named]
        )

    grad = np.concatenate([tensor.grad.reshape(-1) for _, tensor in named])
    m = beta1 * flat(state.m) + (1.0 - beta1) * grad
    v = beta2 * flat(state.v) + (1.0 - beta2) * grad * grad
    data = np.concatenate([tensor.data.reshape(-1) for _, tensor in named])
    data = data - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
    offset = 0
    for name, tensor in named:
        shape, stop = tensor.data.shape, offset + tensor.data.size
        tensor.data = data[offset:stop].reshape(shape)
        state.m[name] = m[offset:stop].reshape(shape)
        state.v[name] = v[offset:stop].reshape(shape)
        offset = stop


def cosine_lr(lr: float, step: int, total_steps: int) -> float:
    """Half-cosine annealing from ``lr`` at step 0 towards 0 at ``total_steps``."""
    return lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


# ------------------------------------------------------------------ batching


def prepare_scenes(
    scenes: list[TrajectoryScene], normalizer: Normalizer, h_max: int
) -> AgentTable:
    """The training table of ``scenes`` (``data.agent_table``). ``h_max``
    is the longest window the run trains at; the first scene by id with
    fewer observed steps is rejected by ``data.windows``."""
    table = agent_table(scenes, normalizer)
    windows(table, h_max)
    return table


def _make_batches(
    table: AgentTable, batch_size: int, rng: np.random.Generator, lengths: list[int], draw=None
) -> list[tuple[np.ndarray, int]]:
    """Shuffled ``(rows, h)`` batches: the agent rows (b, N) of up to
    ``batch_size`` scenes of one (agent count, observed steps) key, and the
    window width ``h`` they train at: each of ``lengths`` in turn. Keys run
    in sorted order, widths in the order given: one permutation of a key's
    scenes (in id order) per width, cut into consecutive slices, then one
    permutation of all batches. With ``draw`` (mixed, with one width in
    ``lengths``), each batch trains at ``draw()`` instead, called once per
    batch in the order the batches run. A batch holds row indices:
    ``_epochs`` copies its rows only when it runs it, as a (b, N, h, 2)
    stack.

    The stack stays 4-D, one scene per leading row, though since the agent
    frame each agent's window is an independent sample: flattened to
    (b·N, h, 2) rows, a batch gives the same loss, but the gradients of the
    decoder's shared LayerNorm affine (``dec.norm``) move in the last bits,
    because ``autodiff.unbroadcast`` sums a (b, N, d) gradient one axis at a
    time."""
    keys = list(zip(np.diff(table.starts).tolist(), table.steps.tolist()))
    batches = []
    for n_agents, steps in sorted(set(keys)):
        scenes = [scene for scene, key in enumerate(keys) if key == (n_agents, steps)]
        first_rows = table.starts[scenes][:, None] + np.arange(n_agents)  # (scenes, N)
        for h in lengths:
            order = rng.permutation(len(scenes))
            for start in range(0, len(order), batch_size):
                batches.append((first_rows[order[start : start + batch_size]], h))
    final_order = rng.permutation(len(batches))
    return [(batches[i][0], batches[i][1] if draw is None else draw()) for i in final_order]


# ------------------------------------------------------------------- logging


@dataclass
class EpochRecord:
    epoch: int
    total: float
    reg: float
    kl: float
    lambda_kl: float    # the KL weight this epoch's total used: total = reg + lambda_kl * kl
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
            header = ["epoch", "total", "reg", "kl", "seconds", "val_seconds", "lambda_kl"]
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
                    f"{record.lambda_kl:.12g}",
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


# ------------------------------------------------------------ shared helpers


@dataclass
class ValSet:
    """A run's per-epoch validation scenes: the agent table of the first
    ``VAL_SCENE_CAP`` val scenes by id, built once, and the ``k`` mode
    means each agent is scored with."""

    table: AgentTable
    k: int
    normalizer: Normalizer


def val_set(split: DatasetSplit, normalizer: Normalizer, cfg: RunConfig) -> ValSet:
    subset = sorted(split.val, key=lambda s: s.scene_id)[:VAL_SCENE_CAP]
    # validation always draws mode means, whatever cfg.eval.sampling is, so
    # it can take at most one sample per mode
    k = min(cfg.eval.samples, cfg.backbone.modes)
    return ValSet(agent_table(subset, normalizer), k, normalizer)


def _val_metrics(
    params: FlnParams, val: ValSet, lengths: list[int]
) -> dict[int, tuple[float, float]]:
    """(ADE, FDE) at each length, one forward per length; ``{}`` for an
    empty val split."""
    if not val.table.scene_ids:
        return {}
    return {h: evaluate_table(params, val.table, h, val.k, val.normalizer) for h in lengths}


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ------------------------------------------------------------------ the loop


def _epochs(
    log: TrainLog,
    params: FlnParams,
    table: AgentTable,
    loss_fn,
    validate,
    cfg: RunConfig,
    state: AdamState,
    shuffle_rng: np.random.Generator,
    epochs: int,
    lengths: list[int],
    anneal: bool = True,
    epoch_hook=None,
    stop=None,
    kl_weight=None,
    draw=None,
) -> TrainLog:
    """The training loop of every strategy: up to ``epochs`` shuffled passes
    over ``table`` with one Adam step per batch, each batch's rows gathered
    at the width it trains at (``_make_batches`` with ``lengths`` and
    ``draw``).

    ``loss_fn(obs, future, params, lambda_kl) -> (total, reg, kl)`` is the
    only other per-strategy part; ``total`` is minimized and ``kl`` is None
    for single-model losses, which ignore ``lambda_kl``. ``lambda_kl`` is the
    epoch's KL weight, ``kl_weight(epoch)``, or 0.0 without ``kl_weight``;
    the epoch's record logs it. Each batch runs in ``_step``, and only its
    float loss terms come back here, so at most one batch's graph is alive
    at a time, and none while ``validate`` or ``epoch_hook`` runs. Each pass
    appends an EpochRecord, with ``validate(params)`` as its val metrics and
    that call's time as its ``val_seconds``, to ``log``, numbered on from
    the records already there; then ``epoch_hook(params, epoch)`` runs, and
    the loop ends early once ``stop(record)`` is true. With ``anneal`` the
    rate follows the half-cosine over this call's ``epochs`` passes, else it
    stays constant. Returns ``log``."""
    step = 0
    for epoch in range(len(log.records), len(log.records) + epochs):
        started = time.perf_counter()
        sums = [0.0, 0.0, 0.0]
        lambda_kl = 0.0 if kl_weight is None else kl_weight(epoch)
        batches = _make_batches(table, cfg.train.batch_size, shuffle_rng, lengths, draw)
        total_steps = epochs * len(batches)
        for rows, h in batches:
            lr = cosine_lr(cfg.train.lr, step, total_steps) if anneal else cfg.train.lr
            losses = _step(
                params, state, loss_fn, table.obs[:, -h:][rows], table.future[rows], lambda_kl, lr
            )
            sums = [running + value for running, value in zip(sums, losses)]
            step += 1
        val_started = time.perf_counter()
        val = validate(params)
        ended = time.perf_counter()
        n = len(batches)
        record = EpochRecord(
            epoch, sums[0] / n, sums[1] / n, sums[2] / n, lambda_kl,
            ended - started, ended - val_started, val,
        )
        log.records.append(record)
        if epoch_hook is not None:
            epoch_hook(params, epoch)
        if stop is not None and stop(record):
            break
    return log


def _step(
    params: FlnParams,
    state: AdamState,
    loss_fn,
    obs: np.ndarray,
    future: np.ndarray,
    lambda_kl: float,
    lr: float,
) -> tuple[float, float, float]:
    """One batch: ``loss_fn``, ``zero_grad``, ``backward`` and ``adam_step``.

    Returns the batch's ``(total, reg, kl)`` as floats, ``kl`` 0.0 for a
    single-model loss. The loss tensors are this function's locals and the
    graph has no cycles, so reference counting frees the batch's whole tape
    when it returns, before the next batch's forward."""
    total, reg, kl = loss_fn(obs, future, params, lambda_kl)
    zero_grad(params.tensors)
    backward(total)
    adam_step(params.tensors, state, lr)
    return total.item(), reg.item(), 0.0 if kl is None else kl.item()


def _single_loss(obs: np.ndarray, future: np.ndarray, params: FlnParams, lambda_kl: float):
    """A single-length model's NLL on a batch at the width it was cut to."""
    loss = nll(bb.forward_single(obs, params), future)
    return loss, loss, None


# ---------------------------------------------------------------- strategies


def _kl_ramp(lambda_kl: float, epochs: int):
    """FLN's KL weight by epoch: ``lambda_kl * e / (E - 1)`` at epoch e of
    E, from 0 at the first epoch to ``lambda_kl`` at the last, and
    ``lambda_kl`` throughout a one-epoch run. The long branch learns before
    the students pull on the shared weights: the consistency-weight ramp-up
    of Temporal Ensembling (Laine & Aila, ICLR 2017), where the paper keeps
    the weight constant."""
    if epochs == 1:
        return lambda epoch: lambda_kl
    return lambda epoch: lambda_kl * (epoch / (epochs - 1))


def train(
    split: DatasetSplit, cfg: RunConfig, normalizer: Normalizer, epoch_hook=None
) -> tuple[FlnParams, TrainLog]:
    """Train the strategy ``cfg.train.strategy`` names; returns its model and
    TrainLog. isolated, mixed and joint differ only in the widths their
    batches are cut to (``_train_single``): mixed draws each batch's width
    from the branch lengths with the (renormalized) probabilities rho.

    The trainers are reached through their module-level names, which a
    tracer can wrap in place."""
    strategy, lengths = cfg.train.strategy, list(cfg.branches.lengths.values())
    if strategy == "fln":
        return train_fln(split, cfg, normalizer, epoch_hook)
    if strategy == "isolated":
        return train_isolated(split, cfg, cfg.train.isolated_length, normalizer, epoch_hook)
    if strategy == "finetune":
        return train_finetune(split, cfg, normalizer, epoch_hook)
    draw = None
    if strategy == "mixed":
        rho = np.asarray((cfg.train.rho_short, cfg.train.rho_medium, cfg.train.rho_long))
        probs, length_rng = rho / rho.sum(), _stream(cfg.seed, STREAM_LENGTH)
        draw = lambda: lengths[int(length_rng.choice(3, p=probs))]
    return _train_single(strategy, split, cfg, normalizer, lengths, epoch_hook, draw)


def train_fln(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """One-time training of all three branches with the combined loss, its
    KL weight ramped up over the epochs to ``lambda_kl`` (``_kl_ramp``).

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
        lambda obs, future, params, lambda_kl: fln_loss(
            obs, future, params, replace(branches, lambda_kl=lambda_kl)
        ),
        lambda p: _val_metrics(p, val, list(branches.lengths.values())),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs, [branches.h_long],
        epoch_hook=epoch_hook, kl_weight=_kl_ramp(branches.lambda_kl, cfg.train.epochs),
    )


def train_isolated(
    split: DatasetSplit,
    cfg: RunConfig,
    h_train: int,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """Conventional training at a single observation length."""
    return _train_single("isolated", split, cfg, normalizer, [h_train], epoch_hook)


def _train_single(
    strategy: str,
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer,
    lengths: list[int],
    epoch_hook=None,
    draw=None,
) -> tuple[FlnParams, TrainLog]:
    """One single-length model, built at the longest of ``lengths`` and
    validated at each of them. Its batches are cut to each of ``lengths`` in
    turn (isolated's one length; joint's dataset expanded with every
    length), or with ``draw`` (mixed) each to ``draw()``."""
    h_max = max(lengths)
    val = val_set(split, normalizer, cfg)
    params = bb.init_params(cfg.backbone, {"L": h_max}, cfg.seed)
    return params, _epochs(
        TrainLog(strategy), params, prepare_scenes(split.train, normalizer, h_max),
        _single_loss, lambda p: _val_metrics(p, val, lengths),
        cfg, AdamState(), _stream(cfg.seed, STREAM_SHUFFLE), cfg.train.epochs,
        lengths if draw is None else [h_max], epoch_hook=epoch_hook, draw=draw,
    )


def train_finetune(
    split: DatasetSplit,
    cfg: RunConfig,
    normalizer: Normalizer,
    epoch_hook=None,
) -> tuple[FlnParams, TrainLog]:
    """Train at the long length, then continue at the target length until the
    validation ADE plateaus.

    Both phases share one model, log, optimizer state and shuffle stream, and
    number their epochs in one sequence (the log's and ``epoch_hook``'s), so
    the hook's call for epoch ``cfg.train.epochs - 1`` sees the pre-finetune
    model (the CLI keeps it as ``checkpoint_pretune``)."""
    val = val_set(split, normalizer, cfg)
    h_long, target = cfg.branches.h_long, cfg.train.finetune_target
    table = prepare_scenes(split.train, normalizer, h_long)
    params = bb.init_params(cfg.backbone, {"L": h_long}, cfg.seed)
    state, shuffle_rng = AdamState(), _stream(cfg.seed, STREAM_SHUFFLE)
    log = _epochs(
        TrainLog("finetune"), params, table, _single_loss,
        lambda p: _val_metrics(p, val, [h_long]),
        cfg, state, shuffle_rng, cfg.train.epochs, [h_long], epoch_hook=epoch_hook,
    )
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
        log, params, table, _single_loss, lambda p: _val_metrics(p, val, [target]),
        cfg, state, shuffle_rng, cfg.train.finetune_max_epochs, [target],
        anneal=False, epoch_hook=epoch_hook, stop=plateau,
    )
    return params, log
