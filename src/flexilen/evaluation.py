"""Displacement metrics, the evaluation protocol, and the
positional-encoding / LayerNorm-statistics diagnostic probes.

``generality_sweep`` is the one scorer of a raw scene set: it scores a model
at every requested observation length and reports the branch each length is
routed to; ``evaluate`` is the sweep at one length. Both score through
``evaluate_table``, which per-epoch validation and the study call on agent
tables they built themselves. The sweep and the LayerNorm probe read the
agent table of ``data.agent_table``, cut to a length by ``data.windows``,
and normalize with the caller's normalizer, the one the model was trained
with."""
from __future__ import annotations

import csv
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .backbone import FlnParams
from .config import BackboneConfig
from .data import AgentTable, Normalizer, TrajectoryScene, agent_table, windows
from .fln import forward_routed, routed_branch
from .mixture import MixturePrediction, draw_samples


@dataclass
class Metrics:
    ade: float
    fde: float
    k: int
    eval_length: int
    scene_count: int
    branch: str  # the branch forward_routed chose; "-" for single-length models

    def to_dict(self) -> dict:
        payload = asdict(self)
        branch = payload.pop("branch")
        if branch != "-":
            payload["routed_branch"] = branch
        return payload


def _per_agent_min_displacement(samples: np.ndarray, gt: np.ndarray):
    """Best-of-K displacement per agent of samples (K, ..., T, 2) against gt
    (..., T, 2): the min over samples of the mean per-timestep Euclidean
    error (ADE), and of the last timestep's error (FDE), (...) each."""
    samples = np.asarray(samples, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if samples.ndim < 3 or samples.shape[1:] != gt.shape:
        raise ValueError(f"samples {samples.shape} incompatible with gt {gt.shape}")
    if samples.shape[0] < 1:
        raise ValueError("need at least one sample")
    disp = np.linalg.norm(samples - gt, axis=-1)  # (K, ..., T)
    return disp.mean(axis=-1).min(axis=0), disp[..., -1].min(axis=0)


def _forward(params: FlnParams, obs: np.ndarray) -> MixturePrediction:
    """One forward of agents' windows: at the model's own length, or
    through the branch ``forward_routed`` picks."""
    with ad.no_grad():
        if params.is_single:
            return bb.forward_single(obs, params)
        return forward_routed(obs, params)[0]


def _routed_per_scene(params: FlnParams, obs: np.ndarray, starts: np.ndarray) -> MixturePrediction:
    """``_forward`` of each scene's rows ``obs[starts[s]:starts[s + 1]]`` in
    turn, joined into one prediction over every agent. The sweep runs a
    routed model this way, one forward_routed call per scene, because the
    benchmark checks routing by counting those calls until it counts scenes
    (ROADMAP item 4)."""
    preds = [_forward(params, obs[start:stop]) for start, stop in zip(starts[:-1], starts[1:])]
    return MixturePrediction(*(
        ad.Tensor(np.concatenate([getattr(pred, name).data for pred in preds]))
        for name in ("means", "scales", "logits")
    ))


def evaluate(
    params: FlnParams,
    scenes: list[TrajectoryScene],
    h_eval: int,
    k: int,
    normalizer: Normalizer,
    sampling: str = "mode-means",
    seed: int = 0,
) -> Metrics:
    """``generality_sweep`` at the one observation length ``h_eval``."""
    return generality_sweep(params, scenes, [h_eval], k, normalizer, sampling, seed)[0]


def evaluate_table(
    params: FlnParams,
    table: AgentTable,
    h_eval: int,
    k: int,
    normalizer: Normalizer,
    sampling: str = "mode-means",
    seed: int = 0,
    predict: Callable[[FlnParams, np.ndarray], MixturePrediction] = _forward,
) -> tuple[float, float]:
    """Best-of-``k`` ADE and FDE in meters over every agent of a table at
    one observation length: its windows go through ``predict`` (by default
    one forward) and are scored in one pass: one draw, one inverse and one
    mean over agents. ``stochastic`` draws scene ``index`` (its position in
    id order) from its own stream, seeded from ``default_rng([seed, 5,
    index])``. Equal, bit for bit, to one forward per scene when the BLAS
    computes each GEMM row the same whatever the number of rows and no
    scene is a single agent: numpy runs a one-row product as GEMV."""
    seeds = None if sampling == "mode-means" else [
        int(np.random.default_rng([seed, 5, s]).integers(2**31)) for s in range(len(table.steps))
    ]
    pred = predict(params, windows(table, h_eval))
    samples = draw_samples(pred, k, sampling, seeds, table.starts)  # (k, A, T, 2)
    samples_m = normalizer.inverse(samples, table.frames)
    per_ade, per_fde = _per_agent_min_displacement(samples_m, table.future_m)
    return float(per_ade.mean()), float(per_fde.mean())


# ------------------------------------------------------------------- sweeps


def generality_sweep(
    params: FlnParams,
    scenes: list[TrajectoryScene],
    lengths: list[int],
    k: int,
    normalizer: Normalizer,
    sampling: str = "mode-means",
    seed: int = 0,
) -> list[Metrics]:
    """The evaluation protocol: aggregate ADE/FDE over a scene set at each
    observation length, one ``Metrics`` per length with the branch
    ``routed_branch`` picks for it ("-" for a single-length model).

    The scenes' agent table is built once for every length and scored by
    ``evaluate_table``: a single-length model processes the length
    natively, one forward over every agent; a multi-branch model runs one
    forward per scene (``_routed_per_scene``), and the predictions are
    joined and scored together. Metrics are computed in denormalized meters
    and are independent of scene ordering (scenes are sorted by id first).
    """
    if not scenes:
        raise ValueError("no scenes to evaluate")
    table = agent_table(scenes, normalizer)
    predict = _forward if params.is_single else partial(_routed_per_scene, starts=table.starts)
    rows = []
    for h in lengths:
        ade_m, fde_m = evaluate_table(params, table, h, k, normalizer, sampling, seed, predict)
        branch = "-" if params.is_single else routed_branch(h, params)
        rows.append(Metrics(
            ade=ade_m, fde=fde_m, k=k, eval_length=h, scene_count=len(scenes), branch=branch
        ))
    return rows


def write_sweep_csv(path: str | Path, rows: list[Metrics]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["h_eval", "ade", "fde", "branch"])
        for row in rows:
            writer.writerow([row.eval_length, f"{row.ade:.9f}", f"{row.fde:.9f}", row.branch])


# ------------------------------------------------------------------- probes


@dataclass
class LnStatReport:
    """Per-site, per-token-position mean/std of pre-normalization features."""

    length: int
    branch: str
    sites: dict[str, np.ndarray] = field(default_factory=dict)  # site -> (H, 2)


def ln_statistics_probe(
    params: FlnParams,
    scenes: list[TrajectoryScene],
    h_eval: int,
    normalizer: Normalizer,
) -> LnStatReport:
    """Per-position population mean and std, as LayerNorm computes them, of
    every encoder LN site's input over every agent and feature of the probe
    set, in scene-id order, captured in one forward of its agent table.

    Branch models run the branch ``routed_branch`` picks for ``h_eval`` (so
    a length below every branch is rejected, as ``evaluate`` rejects it) on
    the last ``h_eval`` observed steps, cut to that branch's window. That
    forward is ``backbone.forward``, not ``forward_routed``, whose calls the
    benchmark counts as routed evaluations (ROADMAP item 4).
    """
    if not scenes:
        raise ValueError("no scenes to probe")
    branch = "-" if params.is_single else routed_branch(h_eval, params)
    obs = windows(agent_table(scenes, normalizer), h_eval)
    capture: dict[str, list[np.ndarray]] = {}
    with ad.no_grad():
        if params.is_single:
            bb.forward_single(obs, params, capture=capture)
        else:
            bb.forward(obs[:, -params.lengths[branch]:, :], branch, params, capture=capture)
    report = LnStatReport(length=h_eval, branch=branch)
    for site in capture:
        if not site.startswith("enc.") or site.endswith(".weights"):
            continue
        agents = capture[site][0]  # (all agents, H, d), in scene-id order
        flat = agents.transpose(1, 0, 2).reshape(agents.shape[1], -1)  # (H, all agents * d)
        report.sites[site] = np.stack([flat.mean(axis=1), flat.std(axis=1)], axis=1)
    return report


def write_ln_report_csv(path: str | Path, report: LnStatReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["site", "position", "offset_from_end", "mean", "std"])
        for site in sorted(report.sites):
            stats = report.sites[site]
            rows = stats.shape[0]
            for position in range(rows):
                writer.writerow(
                    [
                        site,
                        position,
                        position - rows,
                        f"{stats[position, 0]:.9f}",
                        f"{stats[position, 1]:.9f}",
                    ]
                )


@dataclass
class PeDeviationReport:
    h1: int
    h2: int
    distances: np.ndarray  # (min(h1, h2),)


def pe_deviation_report(
    cfg: BackboneConfig,
    h1: int,
    h2: int,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> PeDeviationReport:
    """Per-timestep Euclidean distance between positional encodings computed
    under two observation lengths (or between two learnable tables)."""
    if tables is not None:
        rows1, rows2 = (np.asarray(t, dtype=np.float64) for t in tables)
    elif cfg.pe_kind == "sinusoidal":
        rows1 = bb.sinusoidal_pe(np.arange(h1), h1, cfg.d_model)
        rows2 = bb.sinusoidal_pe(np.arange(h2), h2, cfg.d_model)
    else:
        raise ValueError("learnable PE deviation needs explicit tables")
    shared = min(h1, h2)
    distances = np.linalg.norm(rows1[:shared] - rows2[:shared], axis=1)
    return PeDeviationReport(h1=h1, h2=h2, distances=distances)


def write_pe_report_csv(path: str | Path, report: PeDeviationReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "distance"])
        for t, distance in enumerate(report.distances):
            writer.writerow([t, f"{distance:.9f}"])


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def write_metrics(path_prefix: str | Path, metrics: Metrics, extra: dict | None = None) -> None:
    """Emit one metrics result as aligned CSV + JSON files."""
    prefix = Path(path_prefix)
    payload = metrics.to_dict()
    if extra:
        payload.update(extra)
    with open(prefix.with_suffix(".csv"), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(sorted(payload))
        writer.writerow([payload[k] for k in sorted(payload)])
    write_json(prefix.with_suffix(".json"), payload)
