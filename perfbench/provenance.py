"""Provenance stamp and run trajectory for benchmark results."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path


def _git(root: Path, *args: str) -> "str | None":
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=20, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_state(root: Path) -> "tuple[str | None, bool | None]":
    """(HEAD sha, dirty flag) when ``root`` is itself a git work tree;
    (None, None) in an exported checkout."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None, None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return sha, (bool(status) if status is not None else None)


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files — identifies the code
    measured when there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(root: Path, *, seed: int) -> dict:
    import numpy as np

    from repro.hw.config import ASCEND_910B4
    from repro.tune import config_fingerprint

    sha, dirty = git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(root)[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "config": ASCEND_910B4.name,
        "config_fingerprint": config_fingerprint(ASCEND_910B4)[:16],
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def append_trajectory(path: Path, entry: dict) -> None:
    """Append one run summary as a JSON line."""
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
