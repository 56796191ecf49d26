"""What ``python -m repro watch`` imports, and the public names it defers.

``watch`` judges a trace against a known model: it needs the monitor,
the stream engine and the two core modules they use (events, history).
The scheduler, the structures, the two-phase checker and the reference
WGL search are never run on that path, so they are never imported either — ``repro``, ``repro.core``
and ``repro.runtime`` resolve their public names on first use.  The
parser's ``--engine`` choices come from ``repro.runtime`` itself, which
holds the engine names and imports no scheduler.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.core
import repro.runtime

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: Packages the watch path must not load; of ``repro.runtime`` only the
#: package itself (the engine names) may be.
NOT_ON_THE_WATCH_PATH = ("repro.structures", "repro.reduction", "repro.swarm", "repro.exec")
NOT_LOADED_MODULES = (
    "repro.core.checker", "repro.core.campaign", "repro.core.harness",
    "repro.core.phase1", "repro.monitor.wgl",
)


def off_the_watch_path(name: str) -> bool:
    return (
        name in NOT_LOADED_MODULES
        or name.startswith("repro.runtime.")
        or any(name == p or name.startswith(p + ".") for p in NOT_ON_THE_WATCH_PATH)
    )


#: Runs ``python -m repro`` with the given arguments and writes the
#: names in ``sys.modules`` at exit to the file named first.
_PROBE = """
import atexit, runpy, sys
out, *argv = sys.argv[1:]
def dump():
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\\n".join(sorted(sys.modules)))
atexit.register(dump)
sys.argv = ["repro", *argv]
runpy.run_module("repro", run_name="__main__")
"""


def _window_trace(path: str, ops: int) -> None:
    script = os.path.join(ROOT, "perfbench", "gen_traces.py")
    if not os.path.exists(script):
        pytest.skip("perfbench/gen_traces.py not in this checkout")
    spec = importlib.util.spec_from_file_location("gen_traces", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.generate(path, "window", ops, 1)


def test_watch_imports_only_the_monitor(tmp_path):
    trace = str(tmp_path / "window-40.jsonl")
    _window_trace(trace, 40)
    modules = str(tmp_path / "modules.txt")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, modules, "watch", trace, "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["stats"]["retired"] == 40
    with open(modules, encoding="utf-8") as handle:
        loaded = handle.read().split()
    assert "repro.stream.watch" in loaded
    assert "repro.monitor.incremental" in loaded
    assert [name for name in loaded if off_the_watch_path(name)] == []


@pytest.mark.parametrize(
    "package", [repro, repro.core, repro.runtime],
    ids=["repro", "repro.core", "repro.runtime"],
)
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name  # noqa: B018


def test_the_documented_imports_still_work():
    from repro import CheckConfig, FiniteTest, Invocation, check  # noqa: F401
    from repro.core import CheckpointError, History, Violation  # noqa: F401
    from repro.runtime import DEFAULT_ENGINE, ENGINES

    assert DEFAULT_ENGINE in ENGINES
