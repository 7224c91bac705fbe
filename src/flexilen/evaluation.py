"""Displacement metrics, per-length evaluation, generality sweeps, and the
positional-encoding / LayerNorm-statistics diagnostic probes."""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .backbone import FlnParams
from .config import BackboneConfig
from .data import Normalizer, TrajectoryScene
from .fln import forward_branch, forward_routed, routed_branch
from .mixture import draw_samples


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


def ade(samples: np.ndarray, gt: np.ndarray) -> float:
    """Best-of-K average displacement: per agent, the min over samples of the
    mean per-timestep Euclidean error, averaged over agents."""
    return float(np.mean(_per_agent_min_displacement(samples, gt)[0]))


def fde(samples: np.ndarray, gt: np.ndarray) -> float:
    """Best-of-K final displacement (last timestep only)."""
    return float(np.mean(_per_agent_min_displacement(samples, gt)[1]))


def _per_agent_min_displacement(samples: np.ndarray, gt: np.ndarray):
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


def _windows(scenes: list[TrajectoryScene], h_eval: int, normalizer: Normalizer):
    """Each scene in id order with its last ``h_eval`` normalized observed
    steps and its shift."""
    if h_eval < 1:
        raise ValueError(f"observation length must be >= 1, got {h_eval}")
    for scene in sorted(scenes, key=lambda s: s.scene_id):
        observed, _, shift = normalizer.transform(scene)
        if observed.shape[1] < h_eval:
            raise ValueError(
                f"scene {scene.scene_id} has only {observed.shape[1]} observed steps"
                f" (< {h_eval})"
            )
        yield scene, observed[:, -h_eval:, :], shift


def evaluate(
    params: FlnParams,
    scenes: list[TrajectoryScene],
    h_eval: int,
    k: int,
    normalizer: Normalizer,
    sampling: str = "mode-means",
    seed: int = 0,
) -> Metrics:
    """Aggregate ADE/FDE over a scene set at one observation length.

    Multi-branch models route the length to a branch, which the result
    records; single-length models process it natively. Metrics are computed
    in denormalized meters and are independent of scene ordering (scenes are
    sorted by id first).
    """
    if not scenes:
        raise ValueError("no scenes to evaluate")
    ade_values: list[np.ndarray] = []
    fde_values: list[np.ndarray] = []
    branch = "-"
    for index, (scene, obs, shift) in enumerate(_windows(scenes, h_eval, normalizer)):
        with ad.no_grad():
            if params.is_single:
                pred = bb.forward_single(obs, params)
            else:
                pred, branch = forward_routed(obs, params)
        sample_seed = None if sampling == "mode-means" else int(
            np.random.default_rng([seed, 5, index]).integers(2**31)
        )
        samples = draw_samples(pred, k, mode=sampling, seed=sample_seed)
        samples_m = normalizer.inverse(samples, shift)
        per_ade, per_fde = _per_agent_min_displacement(samples_m, normalizer.future_m(scene))
        ade_values.append(per_ade)
        fde_values.append(per_fde)
    all_ade = np.concatenate(ade_values)
    all_fde = np.concatenate(fde_values)
    return Metrics(
        ade=float(all_ade.mean()),
        fde=float(all_fde.mean()),
        k=k,
        eval_length=h_eval,
        scene_count=len(scenes),
        branch=branch,
    )


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
    routed branch) per length."""
    return [evaluate(params, scenes, h, k, normalizer, sampling, seed) for h in lengths]


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
    sums: dict[str, np.ndarray] = {}
    sq_sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    used_branch = "-" if params.is_single else routed_branch(h_eval, params)
    for _, obs, _ in _windows(scenes, h_eval, normalizer):
        capture: dict[str, list[np.ndarray]] = {}
        with ad.no_grad():
            if params.is_single:
                bb.forward_single(obs, params, capture=capture)
            else:
                forward_branch(obs, used_branch, params, capture=capture)
        for site, values in capture.items():
            if not site.startswith("enc.") or site.endswith(".weights"):
                continue
            arr = values[0][0]  # (N, H, d)
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
