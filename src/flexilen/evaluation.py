"""Displacement metrics, per-length evaluation, generality sweeps, and the
positional-encoding / LayerNorm-statistics diagnostic probes.

Evaluation, the sweep and the LayerNorm probe read the scene groups of
``data.group_scenes``, cut to a length by ``data.windows``, and normalize
with the caller's normalizer, the one the model was trained with."""
from __future__ import annotations

import csv
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .backbone import FlnParams
from .config import BackboneConfig
from .data import Normalizer, SceneGroup, TrajectoryScene, group_scenes, windows
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
    """Best-of-K displacement per agent of samples (K, N, T, 2) against gt
    (N, T, 2): the min over samples of the mean per-timestep Euclidean error
    (ADE), and of the last timestep's error (FDE), (N,) each."""
    samples = np.asarray(samples, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[1:] != gt.shape:
        raise ValueError(f"samples {samples.shape} incompatible with gt {gt.shape}")
    if samples.shape[0] < 1:
        raise ValueError("need at least one sample")
    disp = np.linalg.norm(samples - gt[None], axis=-1)  # (K, N, T)
    ade_per_agent = disp.mean(axis=-1).min(axis=0)      # (N,)
    fde_per_agent = disp[:, :, -1].min(axis=0)          # (N,)
    return ade_per_agent, fde_per_agent


def _agent_errors(pred, k, sampling, seed, group: SceneGroup, normalizer: Normalizer):
    """Per-agent best-of-``k`` ADE and FDE in meters, (B, N) each, of a
    group's stacked prediction. ``stochastic`` draws each scene from its own
    stream, seeded from ``default_rng([seed, 5, index])``."""
    seeds = None if sampling == "mode-means" else [
        int(np.random.default_rng([seed, 5, index]).integers(2**31)) for index in group.index
    ]
    samples = draw_samples(pred, k, sampling, seeds)  # (k, B, N, T, 2)
    samples_m = normalizer.inverse(samples, group.shifts)
    steps = group.future_m.shape[-2:]
    per_ade, per_fde = _per_agent_min_displacement(
        samples_m.reshape(k, -1, *steps), group.future_m.reshape(-1, *steps)
    )
    return per_ade.reshape(group.future_m.shape[:2]), per_fde.reshape(group.future_m.shape[:2])


def _forward(params: FlnParams, obs: np.ndarray) -> MixturePrediction:
    """One forward of a stack of windows: at the model's own length, or
    through the branch ``forward_routed`` picks."""
    with ad.no_grad():
        if params.is_single:
            return bb.forward_single(obs, params)
        return forward_routed(obs, params)[0]


def _routed_per_scene(params: FlnParams, obs: np.ndarray) -> MixturePrediction:
    """``_forward`` one scene at a time, joined into one stacked prediction.
    ``evaluate`` and the sweep run a routed model this way, one
    forward_routed call per scene, because the benchmark checks routing by
    counting those calls until it counts scenes (ROADMAP item 4)."""
    preds = [_forward(params, obs[row : row + 1]) for row in range(len(obs))]
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
    """Aggregate ADE/FDE over a scene set at one observation length, scored
    by ``evaluate_groups`` one group of equal-shaped scenes at a time.

    Single-length models process the length natively, one forward per
    group; multi-branch models route it to a branch, which the result
    records, one forward per scene, and the group's predictions are joined
    and scored together. Metrics are computed in denormalized meters and are
    independent of scene ordering (scenes are sorted by id first).
    """
    if not scenes:
        raise ValueError("no scenes to evaluate")
    return _metrics(params, group_scenes(scenes, normalizer), h_eval, k, normalizer, sampling, seed)


def _metrics(
    params: FlnParams,
    groups: list[SceneGroup],
    h_eval: int,
    k: int,
    normalizer: Normalizer,
    sampling: str,
    seed: int,
) -> Metrics:
    """``evaluate``'s metrics of scenes already grouped."""
    predict = _forward if params.is_single else _routed_per_scene
    ade_m, fde_m = evaluate_groups(params, groups, h_eval, k, normalizer, sampling, seed, predict)
    branch = "-" if params.is_single else routed_branch(h_eval, params)
    scene_count = sum(len(group.index) for group in groups)
    return Metrics(
        ade=ade_m, fde=fde_m, k=k, eval_length=h_eval, scene_count=scene_count, branch=branch
    )


def evaluate_groups(
    params: FlnParams,
    groups: list[SceneGroup],
    h_eval: int,
    k: int,
    normalizer: Normalizer,
    sampling: str = "mode-means",
    seed: int = 0,
    predict: Callable[[FlnParams, np.ndarray], MixturePrediction] = _forward,
) -> tuple[float, float]:
    """ADE and FDE over every agent of grouped scenes at one observation
    length: each group's windows go through ``predict`` (by default one
    forward per group) and are scored in one pass. Equal, bit for bit, to
    one forward per scene when the BLAS computes each GEMM row the same
    whatever the number of rows."""
    per_scene: list = [None] * sum(len(group.index) for group in groups)
    for group, obs in zip(groups, windows(groups, h_eval)):
        per_ade, per_fde = _agent_errors(
            predict(params, obs), k, sampling, seed, group, normalizer
        )
        for row, index in enumerate(group.index):
            per_scene[index] = (per_ade[row], per_fde[row])
    return tuple(float(np.concatenate(values).mean()) for values in zip(*per_scene))


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
    """Evaluate a list of observation lengths, one ``Metrics`` (with its
    routed branch) per length, each equal to ``evaluate``'s at that length.
    The scenes are grouped and normalized once for the whole sweep."""
    if not scenes:
        raise ValueError("no scenes to evaluate")
    groups = group_scenes(scenes, normalizer)
    return [_metrics(params, groups, h, k, normalizer, sampling, seed) for h in lengths]


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
    """Run forwards with activation capture at every encoder LN site and
    aggregate per-position statistics over the probe set.

    Statistics use the population convention, matching LayerNorm itself.
    Branch models run the branch ``routed_branch`` picks for ``h_eval`` (so
    a length below every branch is rejected, as ``evaluate`` rejects it) on
    the last ``h_eval`` observed steps, cut to that branch's window.
    """
    if not scenes:
        raise ValueError("no scenes to probe")
    used_branch = "-" if params.is_single else routed_branch(h_eval, params)
    groups = group_scenes(scenes, normalizer)
    captured: list = [None] * len(scenes)  # per scene in id order: site -> (N, H, d)
    for group, obs in zip(groups, windows(groups, h_eval)):
        capture: dict[str, list[np.ndarray]] = {}
        with ad.no_grad():
            if params.is_single:
                bb.forward_single(obs, params, capture=capture)
            else:
                obs = obs[..., -params.lengths[used_branch]:, :]
                bb.forward(obs, used_branch, params, capture=capture)
        sites = {
            site: values[0]
            for site, values in capture.items()
            if site.startswith("enc.") and not site.endswith(".weights")
        }
        for row, index in enumerate(group.index):
            captured[index] = {site: arr[row] for site, arr in sites.items()}
    sums: dict[str, np.ndarray] = {}
    sq_sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for scene_sites in captured:  # accumulated scene by scene, in id order
        for site, arr in scene_sites.items():
            flat = arr.transpose(1, 0, 2).reshape(arr.shape[1], -1)  # (H, N*d)
            sums[site] = sums.get(site, 0.0) + flat.sum(axis=1)
            sq_sums[site] = sq_sums.get(site, 0.0) + (flat * flat).sum(axis=1)
            counts[site] = counts.get(site, 0) + flat.shape[1]
    report = LnStatReport(length=h_eval, branch=used_branch)
    for site in sums:
        mean = sums[site] / counts[site]
        var = np.maximum(sq_sums[site] / counts[site] - mean * mean, 0.0)
        report.sites[site] = np.stack([mean, np.sqrt(var)], axis=1)
    return report


def ln_report_gap(a: LnStatReport, b: LnStatReport, sites: list[str] | None = None) -> float:
    """Max per-position mean gap across sites, suffix-aligned when the two
    reports cover different observation lengths. ``sites`` restricts the
    comparison (e.g. to the first encoder norm, where the statistics are
    dominated by the inputs rather than by downstream weights)."""
    gaps = []
    for site in a.sites:
        if site not in b.sites or (sites is not None and site not in sites):
            continue
        rows = min(a.sites[site].shape[0], b.sites[site].shape[0])
        gaps.append(np.max(np.abs(a.sites[site][-rows:, 0] - b.sites[site][-rows:, 0])))
    if not gaps:
        raise ValueError("reports share no sites")
    return float(max(gaps))


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
