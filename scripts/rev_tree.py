"""Extract the tree of a git revision of this repository into a directory.

Shared by ``run_digest.py`` (which needs only ``src/``) and
``bench_pairs.py`` (which needs the whole tree).
"""
from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, into: Path, paths: tuple[str, ...] = ()) -> Path:
    """``paths`` (all of the tree when empty) of git revision ``rev``,
    extracted under ``into`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths], capture_output=True
    )
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)
    return into
