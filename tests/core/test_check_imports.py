"""What ``python -m repro check`` and ``campaign`` import.

Each command's run lives beside its subsystem and is imported once the
command line is parsed, so a command loads only the subsystems it runs:
``check`` neither the streaming monitor, the live recorder, the swarm
nor the worker pool; ``campaign`` the pool's package (its
in-process executor) but none of the others.  ``watch`` is pinned the
same way in ``tests/stream/test_watch_imports.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from tests.stream.test_watch_imports import _PROBE

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

OFF_THE_CHECK_PATH = ("stream", "monitor", "live", "swarm", "exec")


def _loaded(tmp_path, *argv) -> tuple[int, list[str]]:
    modules = str(tmp_path / "modules.txt")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, modules, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    with open(modules, encoding="utf-8") as handle:
        return run.returncode, handle.read().split()


def _packages(loaded: list[str], packages) -> list[str]:
    return [
        name for name in loaded
        if any(name == f"repro.{p}" or name.startswith(f"repro.{p}.") for p in packages)
    ]


def test_check_imports_no_other_subsystem(tmp_path):
    code, loaded = _loaded(tmp_path, "check", "Lazy", "--version", "pre", "--cause", "G")
    assert code == 1
    assert "repro.core.checker" in loaded
    assert _packages(loaded, OFF_THE_CHECK_PATH) == []


@pytest.mark.parametrize("isolate", [False, True], ids=["inline", "isolated"])
def test_campaign_imports_no_other_subsystem(tmp_path, isolate):
    flags = ["--isolate", "--workers", "1"] if isolate else []
    code, loaded = _loaded(
        tmp_path, "campaign", "Lazy", "--versions", "beta", "--samples", "1",
        "--rows", "1", "--cols", "2", "--schedules", "5", *flags,
    )
    assert code == 0
    assert "repro.core.campaign" in loaded and "repro.exec" in loaded
    assert _packages(loaded, OFF_THE_CHECK_PATH[:-1]) == []
