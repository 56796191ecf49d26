"""Shared emitter for the ``BENCH_*.json`` perf snapshots.

Every benchmark that persists results routes them through
:func:`write_snapshot`, so all snapshots share one schema (documented in
``docs/PERFORMANCE.md``): a fixed metadata header — ``schema_version``,
``benchmark``, ``python``, ``platform``, ``cpu_count``, ``git_sha``,
``timestamp``, ``src_lines`` — merged with the benchmark-specific payload.  The file is written atomically (tempfile +
``os.replace``) so a crashed or interrupted run never leaves a truncated
snapshot for CI to upload.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import tempfile

#: Bump when the metadata header or any benchmark's payload layout
#: changes incompatibly; consumers should check this before parsing.
SCHEMA_VERSION = 1


def _git_sha() -> "str | None":
    """The current commit, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _src_lines() -> int:
    """Non-blank lines of every ``.py`` file under ``src/repro``."""
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "repro",
    )
    total = 0
    for directory, _subdirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as f:
                    total += sum(1 for line in f if line.strip())
    return total


def snapshot_metadata(benchmark: str) -> dict:
    """The fixed header stamped onto every snapshot.

    ``git_sha`` and ``timestamp`` make two snapshots comparable: a
    regression report that cannot say *which commits* it compares is
    noise.  ``git_sha`` is None when git is unavailable (sdist builds).
    ``src_lines`` puts the size of the code next to the performance it
    buys (ROADMAP aim 2); ``bench_compare`` prints its delta and never
    gates on it.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "src_lines": _src_lines(),
    }


def write_snapshot(path: str, benchmark: str, payload: dict) -> None:
    """Atomically write ``{metadata} | {payload}`` as JSON to *path*."""
    meta = snapshot_metadata(benchmark)
    overlap = meta.keys() & payload.keys()
    if overlap:
        raise ValueError(
            f"payload keys collide with snapshot metadata: {sorted(overlap)}"
        )
    snapshot = {**meta, **payload}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bench-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    print(f"snapshot written to {path}")
