#!/usr/bin/env python3
"""Print one SHA-256 per training strategy, plus ``generate``, ``sweep``, ``eval`` and the probes.

Runs ``flexilen.cli.main`` in-process on a tiny seeded dataset, in a
temporary directory: the ``generate`` that writes it (its line hashes
``dataset.json`` and ``dataset.bin``), every training strategy (fln also with its ablation
switches flipped, so the undetached-teacher and per-branch-NLL paths run,
with two encoder layers, so a first layer over every token feeds a last
layer cut to the decoder's tokens, and with five scenes a batch, so the
scenes of one shape split into several batches and end with a short one), an
isolated model with a learnable positional table, trained at length 4 and
evaluated at length 2 (so a single-length model reads the first rows of its
learnable table; this line hashes both runs),
a length sweep of two checkpoints, an evaluation of the FLN checkpoint at a
length longer than its longest branch (so routed truncation runs), an
evaluation of the isolated checkpoint at a longer length with
``sampling=stochastic`` (so seeded per-scene draws from one forward over
every agent run), the same for the FLN checkpoint at that unseen length (so
seeded per-scene draws from routed per-scene forwards run), an evaluation
of the FLN checkpoint on data regenerated with another seed (so ``eval``
scores with the normalizer scale the checkpoint records, not one refit on
the new data), the LayerNorm probe, the positional-encoding probe on the
learnable tables of a checkpoint and on the default sinusoidal config, and
a mixed-shape line: a dataset of scenes of 1-4 agents and two observed
lengths, written with ``data.save_dataset``, an isolated model trained on
it, evaluated with mode means and with ``sampling=stochastic``, and a length
sweep of the FLN checkpoint on it (so one-agent scenes, and the shorter
scenes' rows among the longer ones', run through training, both samplings
and routed evaluation), and a study line: the CSV that
``protocols.run_length_shift_study`` writes for two seeds at a tiny study
config (every row of the study, trained and scored).
Each line hashes that run's artifacts: checkpoint payloads and manifests, training logs with the
wall-clock columns (``seconds``, ``val_seconds``) removed, and the sweep,
metrics and probe reports. A training line also prints, at full precision, each model's
``final_total`` and its last epoch's validation ADE at every length, and
every line is followed by one indented line per artifact with its hash.

Two checkouts that print the same lines trained and evaluated bit for bit
alike. ``--against REV`` checks a change meant to alter no result against
another revision in one command: it extracts REV with ``git archive`` into a
temporary directory, runs this script in a subprocess with that tree's
``src/`` first on ``PYTHONPATH`` (so an older revision gets every line,
whatever its own copy of the script runs), and prints both hashes of every
line with ``same`` or ``DIFFERS``. Under a line that differs it names the
artifacts whose bytes differ, and under a training line both sides' final
values, so a change that moves bits shows where and by how much; it exits 1
on any difference.

    PYTHONPATH=src python scripts/run_digest.py
    PYTHONPATH=src python scripts/run_digest.py --against HEAD~1

BLAS is pinned to one thread before numpy loads, since several BLAS threads
can change the last bits of a matmul between runs.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from flexilen.cli import main  # noqa: E402
from flexilen.config import DataConfig  # noqa: E402
from flexilen.data import TrajectoryScene, generate_from_config, save_dataset  # noqa: E402
from flexilen.protocols import run_length_shift_study, study_run_config  # noqa: E402
from rev_tree import extract  # noqa: E402

SEED = 3
# horizon 12, as the study's: the mixture sums each mode's 24 terms, and a
# numpy sum of 8 or more contiguous terms takes its unrolled pairwise path,
# so a change to the layout or order of that sum shows in the hashes
TINY = [
    "--set", "d_model=8", "--set", "heads=2", "--set", "layers=1",
    "--set", "dec_hidden=16", "--set", "modes=2", "--set", "horizon=12",
    "--set", "h_short=2", "--set", "h_medium=3", "--set", "h_long=4",
    "--set", "obs_len=6", "--set", "n_scenes=60", "--set", "epochs=3",
    "--set", "batch_size=16", "--set", "samples=2",
]
ABLATED = ["--set", "detach_teacher=false", "--set", "pe_kind=learnable"]
NO_TD = [  # learnable PE, since independent_pe changes nothing under sinusoidal rows
    "--set", "temporal_distillation=false", "--set", "weight_sharing=false",
    "--set", "independent_pe=false", "--set", "specialized_ln=false",
    "--set", "pe_kind=learnable",
]
TRAIN_RUNS = {
    "fln": ["--strategy", "fln"],
    "fln-ablated": ["--strategy", "fln", *ABLATED],
    "fln-no-td": ["--strategy", "fln", *NO_TD],
    "fln-2layer": ["--strategy", "fln", "--set", "layers=2"],
    "fln-batch5": ["--strategy", "fln", "--set", "batch_size=5"],
    "isolated": ["--strategy", "isolated", "--length", "2"],
    "mixed": ["--strategy", "mixed"],
    "finetune": [
        "--strategy", "finetune", "--set", "finetune_target=2",
        "--set", "finetune_max_epochs=4", "--set", "finetune_patience=2",
    ],
    "joint": ["--strategy", "joint"],
}


WALL_CLOCK = ("seconds", "val_seconds")  # training-log columns that time the run


def write_mixed_shapes(out: Path) -> None:
    """A dataset of 60 scenes of 1-4 agents: half with TINY's 6 observed
    steps, half with 4, under ids that interleave the two halves."""
    scenes = []
    for obs_len, seed in ((6, SEED), (4, SEED + 1)):
        cfg = DataConfig(n_scenes=30, agents_min=1, agents_max=4, obs_len=obs_len, horizon=12)
        scenes += [
            TrajectoryScene(s.positions, s.dt, f"{s.scene_id}-{obs_len}")
            for s in generate_from_config(cfg, seed)
        ]
    save_dataset(out, scenes, {"seed": SEED})


def _without_wall_clock(path: Path) -> bytes:
    """A training log's bytes with every wall-clock column dropped."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    keep = [i for i, name in enumerate(rows[0]) if name not in WALL_CLOCK]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def file_hashes(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in ``directory``, by name, in sorted order."""
    hashes = {}
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        data = _without_wall_clock(path) if path.name.endswith("_log.csv") else path.read_bytes()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes


def digest(files: dict[str, str]) -> str:
    """One SHA-256 over ``file_hashes``."""
    h = hashlib.sha256()
    for name, file_hash in files.items():
        h.update(name.encode() + b"\0" + bytes.fromhex(file_hash))
    return h.hexdigest()


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(argv)}")


def final_values(directory: Path) -> dict[str, str]:
    """``model.final_total`` and ``model.val_ade@H`` (the last epoch's
    validation ADE at each length) for every model a training run wrote,
    at full precision."""
    values = {}
    for path in sorted(directory.glob("*_summary.json")):
        model = path.name.removesuffix("_summary.json")
        summary = json.loads(path.read_text(encoding="utf-8"))
        values[f"{model}.final_total"] = repr(summary["final_total"])
        for h, (ade, _) in sorted(summary["final_val"].items(), key=lambda item: int(item[0])):
            values[f"{model}.val_ade@{h}"] = repr(ade)
    return values


def run(root: Path) -> tuple[dict[str, str], dict[str, dict[str, str]], dict[str, dict[str, str]]]:
    """Every line's hash, each training line's ``final_values``, and every
    line's ``file_hashes`` (a file's path relative to the line's run)."""
    files, values = {}, {}

    def record(name: str, *directories: Path) -> None:
        # a line over several runs names its files by the run's subdirectory
        files[name] = {}
        for directory in directories:
            prefix = "" if len(directories) == 1 else f"{directory.name}/"
            files[name].update({prefix + f: h for f, h in file_hashes(directory).items()})

    data = root / "data"
    _cli(["generate", "--out", str(data), "--seed", str(SEED), *TINY])
    record("generate", data)
    for name, args in TRAIN_RUNS.items():
        out = root / name
        _cli(["train", "--out", str(out), "--data", str(data), "--seed", str(SEED), *TINY, *args])
        record(name, out)
        values[name] = final_values(out)
    learnable = root / "isolated-learnable"
    _cli(["train", "--out", str(learnable), "--data", str(data), "--seed", str(SEED), *TINY,
          "--strategy", "isolated", "--length", "4", "--set", "pe_kind=learnable"])
    _cli(["eval", "--out", str(learnable / "eval"), "--checkpoint", str(learnable / "checkpoint"),
          "--data", str(data), "--length", "2"])
    record("isolated-learnable", learnable, learnable / "eval")
    values["isolated-learnable"] = final_values(learnable)
    checkpoints = [str(root / "fln-ablated" / "checkpoint"), str(root / "isolated" / "checkpoint")]
    sweep = root / "sweep"
    for index, checkpoint in enumerate(checkpoints):
        _cli(["sweep", "--out", str(sweep / str(index)), "--checkpoint", checkpoint,
              "--data", str(data), "--lengths", "2..6"])
    record("sweep", sweep / "0", sweep / "1")
    evaluation = root / "eval"
    _cli(["eval", "--out", str(evaluation), "--checkpoint", str(root / "fln" / "checkpoint"),
          "--data", str(data), "--length", "5"])
    record("eval", evaluation)
    stochastic = root / "eval-stochastic"
    _cli(["eval", "--out", str(stochastic), "--checkpoint", str(root / "isolated" / "checkpoint"),
          "--data", str(data), "--length", "4", "--set", "sampling=stochastic"])
    record("eval-stochastic", stochastic)
    fln_stochastic = root / "eval-fln-stochastic"
    _cli(["eval", "--out", str(fln_stochastic), "--checkpoint", str(root / "fln" / "checkpoint"),
          "--data", str(data), "--length", "5", "--set", "sampling=stochastic"])
    record("eval-fln-stochastic", fln_stochastic)
    other_data = root / "eval-other-data"
    _cli(["eval", "--out", str(other_data), "--checkpoint", str(root / "fln" / "checkpoint"),
          "--seed", str(SEED + 1), "--length", "4"])
    record("eval-other-data", other_data)
    probe = root / "probe_ln"
    _cli(["probe", "ln", "--out", str(probe), "--checkpoint", checkpoints[0],
          "--checkpoint", checkpoints[1], "--data", str(data), "--length", "2"])
    record("probe_ln", probe)
    pe = root / "probe_pe"
    _cli(["probe", "pe", "--out", str(pe / "0"), "--checkpoint", checkpoints[0],
          "--h1", "2", "--h2", "4"])
    _cli(["probe", "pe", "--out", str(pe / "1"), "--h1", "2", "--h2", "8"])
    record("probe_pe", pe / "0", pe / "1")
    mixed = root / "mixed-shapes"
    mixed_data, trained = mixed / "data", mixed / "isolated"
    write_mixed_shapes(mixed_data)
    _cli(["train", "--out", str(trained), "--data", str(mixed_data), "--seed", str(SEED), *TINY,
          "--strategy", "isolated", "--length", "4"])
    _cli(["eval", "--out", str(mixed / "eval"), "--checkpoint", str(trained / "checkpoint"),
          "--data", str(mixed_data), "--length", "4"])
    _cli(["eval", "--out", str(mixed / "eval-stochastic"), "--checkpoint", str(trained / "checkpoint"),
          "--data", str(mixed_data), "--length", "3", "--set", "sampling=stochastic"])
    _cli(["sweep", "--out", str(mixed / "sweep"), "--checkpoint", str(root / "fln" / "checkpoint"),
          "--data", str(mixed_data), "--lengths", "2..4"])
    record("mixed-shapes", *(mixed / name for name in
           ("data", "isolated", "eval", "eval-stochastic", "sweep")))
    values["mixed-shapes"] = final_values(trained)
    # run_length_shift_study, study_run_config and write_csv are in older
    # trees too, so --against runs this line on them
    study = root / "study"
    study.mkdir()
    base = study_run_config(n_scenes=100, epochs=3, lengths=(2, 3, 4), horizon=12)
    run_length_shift_study(base, seeds=(SEED, SEED + 1)).write_csv(study / "study.csv")
    record("study", study)
    hashes = {name: digest(line_files) for name, line_files in files.items()}
    return hashes, values, files


def start_against(rev: str, tmp: Path) -> subprocess.Popen:
    """Start this script in a subprocess on the ``src/`` of git revision
    ``rev``, extracted under ``tmp``."""
    extract(rev, tmp, ("src",))
    path = [str(tmp / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def main_digest(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", help="compare with git revision REV")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="flexilen-digest-") as tmp:
        # the other revision runs while this one does
        other = start_against(args.against, Path(tmp) / "rev") if args.against else None
        try:
            ours, our_values, our_files = run(Path(tmp))
        except BaseException:
            if other is not None:
                other.kill()
            raise
        if other is None:
            for name, value in ours.items():
                extra = [f"{key}={v}" for key, v in our_values.get(name, {}).items()]
                print(" ".join([f"{name:12s}", value, *extra]))
                for path, file_hash in our_files[name].items():
                    print(f"    {path} {file_hash}")
            return 0
        stdout, stderr = other.communicate()
    if other.returncode:
        raise SystemExit(f"digest of {args.against} failed:\n{stderr}")
    theirs, their_values, their_files = {}, {}, {}
    for line in stdout.splitlines():
        if line.startswith(" "):  # a file of the line above
            path, file_hash = line.split()
            their_files[name][path] = file_hash
            continue
        name, value, *rest = line.split()
        theirs[name], their_values[name] = value, dict(item.split("=", 1) for item in rest)
        their_files[name] = {}
    differs = False
    for name in {**ours, **theirs}:
        mine, other_hash = ours.get(name, "-"), theirs.get(name, "-")
        differs |= mine != other_hash
        print(f"{name:12s} {mine} {other_hash} {'same' if mine == other_hash else 'DIFFERS'}")
        if mine != other_hash:
            # which files moved, and for a training line by how much its results did
            mine_files, other_files = our_files.get(name, {}), their_files.get(name, {})
            moved = [p for p in {**mine_files, **other_files} if mine_files.get(p) != other_files.get(p)]
            print(f"    files that differ: {' '.join(moved)}")
            mine_values, other_values = our_values.get(name, {}), their_values.get(name, {})
            for key in {**mine_values, **other_values}:
                print(f"    {key:26s} {mine_values.get(key, '-'):>22s} {other_values.get(key, '-'):>22s}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main_digest())
