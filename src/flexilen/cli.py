"""Command-line surface: generate, train, eval, probe, sweep.

Every command builds its run config in ``_build_config``: the defaults, or
the checkpoint's run config for eval, sweep and probe, then ``--config``, then
``--set``, then the flags that name a key: a flag whose argparse ``dest``
is a config key sets that key (``--samples K`` is ``--set samples=K``, and
``train --length H`` is ``--set isolated_length=H``). On a checkpoint only
data, eval and seed keys may differ from its run config. ``train`` writes
its normalizer's scale into every checkpoint, and ``eval``, ``sweep`` and
``probe ln`` normalize with it, whatever data they read. Every command
validates its full configuration before touching the filesystem, echoes the
effective seed into its output manifest, and exits nonzero on any error.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    FLAT_KEYS,
    STRATEGIES,
    ConfigError,
    RunConfig,
    build_run_config,
    load_run_config,
    run_config_to_flat,
)
from .data import Normalizer, generate_from_config, load_dataset, save_dataset, split_scenes
from .evaluation import (
    evaluate,
    generality_sweep,
    ln_statistics_probe,
    pe_deviation_report,
    write_ln_report_csv,
    write_json,
    write_metrics,
    write_pe_report_csv,
    write_sweep_csv,
)
from .training import (
    train_fln,
    train_finetune,
    train_isolated,
    train_joint,
    train_mixed,
)


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def _build_config(args, base: dict | None = None) -> RunConfig:
    """``base`` (flat keys; the defaults when None), then ``--config``, then
    ``--set``, then the flags that name a key: every given flag whose
    argparse ``dest`` is a config key."""
    overrides: dict[str, object] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    overrides.update(
        (key, value) for key, value in vars(args).items() if key in FLAT_KEYS and value is not None
    )
    return load_run_config(args.config, overrides, base=base)


def _checkpoint_config(args, checkpoint: str):
    """A checkpoint's model, its run config under this command's overrides,
    which may change only data, eval and seed keys, and its manifest."""
    params, manifest, _ = load_checkpoint(checkpoint)
    base = manifest.get("run_config") or {}
    cfg = _build_config(args, base)
    trained = run_config_to_flat(build_run_config(base))
    locked = [
        f"{key}={trained[key]}"
        for key, value in run_config_to_flat(cfg).items()
        if value != trained[key] and key != "seed" and FLAT_KEYS[key][0] not in ("data", "eval")
    ]
    if locked:
        raise ConfigError(
            f"checkpoint {checkpoint} was trained with {', '.join(locked)}; only data, eval"
            " and seed keys may differ from its run config"
        )
    return params, cfg, manifest


def _checkpoint_run(args, checkpoint: str):
    """``_checkpoint_config``'s model and run config, the run's ``_split``,
    and the normalizer rebuilt from the scale the checkpoint records."""
    params, cfg, manifest = _checkpoint_config(args, checkpoint)
    scale = manifest.get("scale")
    if type(scale) is not float or not 0 < scale < math.inf:
        raise ConfigError(f"checkpoint {checkpoint} records no normalizer scale; retrain it")
    return params, cfg, _split(args, cfg), Normalizer(cfg.data.horizon, scale)


def _split(args, cfg: RunConfig):
    """The run's scenes (``--data``, or generated from the config), split."""
    data = getattr(args, "data", None)
    scenes = load_dataset(data)[0] if data else generate_from_config(cfg.data, cfg.seed)
    return split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)


def cmd_generate(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    scenes = generate_from_config(cfg.data, cfg.seed)
    save_dataset(
        out,
        scenes,
        {
            "seed": cfg.seed,
            "dt": cfg.data.dt,
            "motion_mix": list(cfg.data.motion_mix),
            "noise_sigma": cfg.data.noise_sigma,
            "repulsion": cfg.data.repulsion,
            "obs_len": cfg.data.obs_len,
            "horizon": cfg.data.horizon,
            "n_scenes": cfg.data.n_scenes,
        },
    )
    agents = sum(s.n_agents for s in scenes)
    print(f"wrote {len(scenes)} scenes ({agents} agents) to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    split = _split(args, cfg)
    normalizer = Normalizer(cfg.data.horizon).fit(split.train)
    run_flat = run_config_to_flat(cfg)
    out.mkdir(parents=True, exist_ok=True)

    def save(name: str, params, epoch: int) -> None:
        save_checkpoint(out / name, params, run_flat, epoch=epoch, scale=normalizer.scale)

    # atomic per-epoch snapshots: an interrupted run keeps its last completed epoch
    def checkpoint_hook(name: str):
        return lambda params, epoch: save(name, params, epoch + 1)

    strategy = cfg.train.strategy
    hook = checkpoint_hook("checkpoint")
    if strategy == "fln":
        _, log = train_fln(split, cfg, normalizer, epoch_hook=hook)
    elif strategy == "isolated":
        _, log = train_isolated(split, cfg, cfg.train.isolated_length, normalizer, epoch_hook=hook)
    elif strategy == "mixed":
        _, log = train_mixed(split, cfg, normalizer, epoch_hook=hook)
    elif strategy == "finetune":
        _, log, pre = train_finetune(split, cfg, normalizer, epoch_hook=hook)
        save("checkpoint_pretune", pre, cfg.train.epochs)
    if strategy == "joint":
        models = train_joint(split, cfg, normalizer, lambda h: checkpoint_hook(f"checkpoint_h{h}"))
        logs = {f"checkpoint_h{h}": log for h, (_, log) in models.items()}
    else:
        logs = {"checkpoint": log}

    for name, log in logs.items():
        log.to_csv(out / f"{name}_log.csv")
        log.to_json(out / f"{name}_summary.json")
        final = log.records[-1]
        print(
            f"{name}: {len(log.records)} epochs, final total {final.total:.6f} "
            f"(reg {final.reg:.6f}, kl {final.kl:.6f})"
        )
    return 0


def cmd_eval(args) -> int:
    params, cfg, split, normalizer = _checkpoint_run(args, args.checkpoint)
    k = cfg.eval.samples
    metrics = evaluate(
        params, split.test, args.length, k, normalizer, sampling=cfg.eval.sampling, seed=cfg.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(
        out / "metrics", metrics, {"seed": cfg.seed, "checkpoint": Path(args.checkpoint).name}
    )
    branch_note = "" if metrics.branch == "-" else f" branch {metrics.branch}"
    print(
        f"H'={args.length}{branch_note}: ADE_{k} {metrics.ade:.6f}  FDE_{k} {metrics.fde:.6f} "
        f"({metrics.scene_count} scenes)"
    )
    return 0


def _parse_lengths(spec: str) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lengths = list(range(int(lo), int(hi) + 1))
    else:
        lengths = [int(part) for part in spec.split(",") if part]
    if not lengths:
        raise ConfigError(f"--lengths {spec!r} names no length")
    return lengths


def cmd_sweep(args) -> int:
    lengths = _parse_lengths(args.lengths)
    params, cfg, split, normalizer = _checkpoint_run(args, args.checkpoint)
    k = cfg.eval.samples
    rows = generality_sweep(
        params, split.test, lengths, k, normalizer, sampling=cfg.eval.sampling, seed=cfg.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep.csv", rows)
    write_json(out / "sweep.json", {
        "seed": cfg.seed,
        "k": k,
        "rows": [
            {"h_eval": r.eval_length, "ade": r.ade, "fde": r.fde, "branch": r.branch}
            for r in rows
        ],
    })
    for row in rows:
        print(f"H'={row.eval_length} branch {row.branch}: ADE {row.ade:.6f} FDE {row.fde:.6f}")
    return 0


def _branch_table(params, h: int):
    for branch, length in params.lengths.items():
        if length == h:
            table = params.pe_table(branch)
            return None if table is None else table.data
    raise ConfigError(f"checkpoint has no branch of length {h} (has {params.lengths})")


def cmd_probe(args) -> int:
    foreign = [
        f"--{flag}"
        for flag in (("data", "length") if args.kind == "pe" else ("h1", "h2"))
        if getattr(args, flag) is not None
    ]
    if args.kind == "pe" and len(args.checkpoint) > 1:
        foreign.append("a second --checkpoint")
    if foreign:
        raise ConfigError(f"probe {args.kind} does not take {', '.join(foreign)}")
    out = Path(args.out)
    if args.kind == "pe":
        if args.checkpoint:
            params, _, _ = _checkpoint_config(args, args.checkpoint[0])
            tables = (_branch_table(params, args.h1), _branch_table(params, args.h2))
            report = pe_deviation_report(
                params.cfg, args.h1, args.h2, tables=None if tables[0] is None else tables
            )
        else:
            report = pe_deviation_report(_build_config(args).backbone, args.h1, args.h2)
        out.mkdir(parents=True, exist_ok=True)
        write_pe_report_csv(out / f"pe_deviation_{args.h1}_{args.h2}.csv", report)
        write_json(out / f"pe_deviation_{args.h1}_{args.h2}.json", {
            "h1": args.h1,
            "h2": args.h2,
            "timesteps": int(report.distances.size),
            "max_distance": float(report.distances.max()),
            "distances": [float(d) for d in report.distances],
        })
        print(
            f"pe deviation H1={args.h1} H2={args.h2}: max {report.distances.max():.6f} "
            f"over {report.distances.size} timesteps"
        )
        return 0
    if args.kind == "ln":
        if not args.checkpoint:
            raise ConfigError("ln probe requires at least one --checkpoint")
        if args.length is None:
            raise ConfigError("ln probe requires --length")
        runs = [_checkpoint_run(args, ckpt) for ckpt in args.checkpoint]
        reports = [
            ln_statistics_probe(params, split.test, args.length, normalizer)
            for params, _, split, normalizer in runs
        ]
        out.mkdir(parents=True, exist_ok=True)
        for index, (ckpt, report) in enumerate(zip(args.checkpoint, reports)):
            write_ln_report_csv(out / f"ln_stats_{index}.csv", report)
            write_json(out / f"ln_stats_{index}.json", {
                "checkpoint": Path(ckpt).name,
                "length": report.length,
                "branch": report.branch,
                "sites": {
                    site: {
                        "mean": [float(v) for v in stats[:, 0]],
                        "std": [float(v) for v in stats[:, 1]],
                    }
                    for site, stats in sorted(report.sites.items())
                },
            })
            print(f"ln probe [{index}] {ckpt}: {len(report.sites)} sites at H'={args.length}")
        return 0
    raise ConfigError(f"unknown probe kind {args.kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexilen",
        description="Observation-length-robust trajectory prediction laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    _add_shared(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train a model with a chosen strategy")
    _add_shared(p_train)
    p_train.add_argument("--data", help="dataset directory (default: generate in memory)")
    p_train.add_argument("--strategy", choices=STRATEGIES)
    p_train.add_argument("--length", type=int, dest="isolated_length",
                         help="observation length for strategy=isolated (--set isolated_length=H)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint at one length")
    _add_shared(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset directory")
    p_eval.add_argument("--length", type=int, required=True)
    p_eval.add_argument("--samples", type=int, help="best-of-K sample count (--set samples=K)")
    p_eval.set_defaults(func=cmd_eval)

    p_probe = sub.add_parser("probe", help="emit diagnostic reports")
    _add_shared(p_probe)
    p_probe.add_argument("kind", choices=["ln", "pe"])
    p_probe.add_argument("--checkpoint", action="append", default=[])
    p_probe.add_argument("--data", help="dataset directory")
    p_probe.add_argument("--length", type=int, help="observation length for the ln probe")
    p_probe.add_argument("--h1", type=int, help="first length for the pe probe")
    p_probe.add_argument("--h2", type=int, help="second length for the pe probe")
    p_probe.set_defaults(func=cmd_probe)

    p_sweep = sub.add_parser("sweep", help="evaluate a range of observation lengths")
    _add_shared(p_sweep)
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--data", help="dataset directory")
    p_sweep.add_argument("--lengths", required=True, help="e.g. '4..30' or '2,6,8'")
    p_sweep.add_argument("--samples", type=int, help="best-of-K sample count (--set samples=K)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "probe" and args.kind == "pe" and (args.h1 is None or args.h2 is None):
        parser.error("probe pe requires --h1 and --h2")
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
