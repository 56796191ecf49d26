"""Checkpoint/resume for long-running checks and campaigns.

A checkpoint is a single JSON document written atomically (temp file +
fsync + rename, see :mod:`repro.core.fileio`), so a crash or SIGKILL at
any instant leaves either the previous checkpoint or the new one — never
a torn file.  Two kinds exist, discriminated by ``kind``:

* ``"check"`` — one ``Check(X, m)`` run: the finite test, the config, the
  current phase, the exploration strategy's frontier snapshot (for DFS
  the post-backtrack decision stack, which *is* the resume point), the
  accumulated observation set (as Fig. 7 XML), partial phase statistics,
  and the budget meter.
* ``"campaign"`` — a multi-class campaign: the class/version plan, the
  finished rows, per-test summaries of the class in progress, and the
  sampling parameters.  Campaign resume re-runs the interrupted *test*
  from scratch (tests are cheap relative to campaigns; execution-level
  granularity is reserved for single checks).

The exploration is deterministic given the strategy state — that is the
stateless-replay property the whole checker is built on — so a resumed
run explores exactly the executions the interrupted one would have.
"""

from __future__ import annotations

import ast
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.checker import CheckConfig
from repro.core.events import Invocation
from repro.core.fileio import atomic_write_text
from repro.core.harness import Phase1Stats
from repro.core.observations import observations_from_xml, observations_to_xml
from repro.core.spec import ObservationSet
from repro.core.testcase import FiniteTest
from repro.runtime import (
    DEFAULT_ENGINE,
    SchedulingStrategy,
    strategy_from_snapshot,
)

__all__ = [
    "CheckResume",
    "CheckpointError",
    "Checkpointer",
    "build_check_state",
    "config_from_dict",
    "config_to_dict",
    "load_checkpoint",
    "parse_check_state",
    "save_checkpoint",
    "test_from_dict",
    "test_to_dict",
]

FORMAT = "lineup-checkpoint"
VERSION = 1


class CheckpointError(Exception):
    """A checkpoint file could not be read, parsed, or validated."""


# ----------------------------------------------------------------------
# Serialization helpers (everything JSON-able, values via repr round-trip)
# ----------------------------------------------------------------------


def invocation_to_dict(invocation: Invocation) -> dict:
    data: dict[str, Any] = {
        "method": invocation.method,
        "args": repr(tuple(invocation.args)),
    }
    if invocation.target is not None:
        data["target"] = invocation.target
    return data


def invocation_from_dict(data: dict) -> Invocation:
    args = ast.literal_eval(data["args"])
    return Invocation(data["method"], tuple(args), data.get("target"))


def test_to_dict(test: FiniteTest) -> dict:
    return {
        "columns": [
            [invocation_to_dict(op) for op in column] for column in test.columns
        ],
        "init": [invocation_to_dict(op) for op in test.init],
        "final": [invocation_to_dict(op) for op in test.final],
    }


def test_from_dict(data: dict) -> FiniteTest:
    return FiniteTest(
        columns=tuple(
            tuple(invocation_from_dict(op) for op in column)
            for column in data["columns"]
        ),
        init=tuple(invocation_from_dict(op) for op in data.get("init", ())),
        final=tuple(invocation_from_dict(op) for op in data.get("final", ())),
    )


def config_to_dict(config: CheckConfig) -> dict:
    return {
        "preemption_bound": config.preemption_bound,
        "phase2_strategy": config.phase2_strategy,
        "pct_depth": config.pct_depth,
        "phase2_executions": config.phase2_executions,
        "seed": config.seed,
        "max_serial_executions": config.max_serial_executions,
        "max_concurrent_executions": config.max_concurrent_executions,
        "max_steps": config.max_steps,
        "stop_at_first_violation": config.stop_at_first_violation,
        "budget": config.budget.to_dict() if config.budget is not None else None,
        "watchdog_seconds": config.watchdog_seconds,
        "backend": config.backend,
        "model": config.model,
        "monitor_engine": config.monitor_engine,
        "dump_traces": config.dump_traces,
        "reduction": config.reduction,
        "engine": config.engine,
    }


def config_from_dict(data: dict) -> CheckConfig:
    from repro.core.budget import ExplorationBudget

    budget = data.get("budget")
    return CheckConfig(
        preemption_bound=data.get("preemption_bound", 2),
        phase2_strategy=data.get("phase2_strategy", "dfs"),
        pct_depth=data.get("pct_depth", 3),
        phase2_executions=data.get("phase2_executions", 2000),
        seed=data.get("seed", 0),
        max_serial_executions=data.get("max_serial_executions"),
        max_concurrent_executions=data.get("max_concurrent_executions", 20_000),
        max_steps=data.get("max_steps", 20_000),
        stop_at_first_violation=data.get("stop_at_first_violation", True),
        budget=ExplorationBudget.from_dict(budget) if budget else None,
        watchdog_seconds=data.get("watchdog_seconds"),
        backend=data.get("backend", "observations"),
        model=data.get("model"),
        monitor_engine=data.get("monitor_engine", "auto"),
        dump_traces=data.get("dump_traces"),
        reduction=data.get("reduction", "none"),
        engine=data.get("engine", DEFAULT_ENGINE),
    )


def _phase1_to_dict(stats: Phase1Stats) -> dict:
    return {
        "executions": stats.executions,
        "histories": stats.histories,
        "stuck_histories": stats.stuck_histories,
        "divergent": stats.divergent,
    }


def _phase1_from_dict(data: dict) -> Phase1Stats:
    return Phase1Stats(
        executions=int(data.get("executions", 0)),
        histories=int(data.get("histories", 0)),
        stuck_histories=int(data.get("stuck_histories", 0)),
        divergent=int(data.get("divergent", 0)),
    )


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------


def save_checkpoint(path: str, state: dict) -> None:
    """Atomically write checkpoint *state* (plus format envelope) to *path*."""
    document = {"format": FORMAT, "version": VERSION, **state}
    atomic_write_text(path, json.dumps(document))


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint file; raise :class:`CheckpointError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path!r}: not valid JSON ({exc})"
        ) from exc
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise CheckpointError(f"{path!r} is not a Line-Up checkpoint file")
    if document.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has version {document.get('version')!r}; "
            f"this build reads version {VERSION}"
        )
    if document.get("kind") not in (
        "check", "campaign", "swarm", "shard-result", "generate",
    ):
        raise CheckpointError(
            f"checkpoint {path!r} has unknown kind {document.get('kind')!r}"
        )
    return document


class Checkpointer:
    """Rate-limited checkpoint writer threaded through exploration loops.

    ``tick`` is called after every execution (or test) with a *thunk* that
    builds the state dict; the state is only materialized and written when
    either ``every_executions`` ticks or ``every_seconds`` have elapsed
    since the last write, keeping the cost negligible on hot loops.
    ``extra`` is merged into every saved state (the CLI stashes the
    subject class/version there so ``lineup resume`` can rebuild it).
    """

    def __init__(
        self,
        path: str,
        every_executions: int = 250,
        every_seconds: float = 10.0,
        extra: dict | None = None,
    ) -> None:
        if every_executions < 1:
            raise ValueError("every_executions must be >= 1")
        if every_seconds < 0:
            raise ValueError("every_seconds must be >= 0")
        self.path = path
        self.every_executions = every_executions
        self.every_seconds = every_seconds
        self.extra = dict(extra or {})
        self.saves = 0
        self._ticks = 0
        self._last_save = time.monotonic()

    def tick(self, make_state: Callable[[], dict]) -> bool:
        """Maybe write a checkpoint; returns True when one was written."""
        self._ticks += 1
        due = (
            self._ticks >= self.every_executions
            or time.monotonic() - self._last_save >= self.every_seconds
        )
        if not due:
            return False
        self.save(make_state())
        return True

    def save(self, state: dict) -> None:
        """Unconditionally write a checkpoint (used for final flushes)."""
        merged = {**state, **self.extra}
        save_checkpoint(self.path, merged)
        self.saves += 1
        self._ticks = 0
        self._last_save = time.monotonic()


# ----------------------------------------------------------------------
# ``check`` state (kind="check")
# ----------------------------------------------------------------------


def build_check_state(
    *,
    test: FiniteTest,
    config: CheckConfig,
    phase: str,
    strategy: SchedulingStrategy | None,
    observations: ObservationSet | None,
    phase1: Phase1Stats,
    phase1_seconds: float,
    phase2: dict | None = None,
    budget_snapshot: dict | None = None,
) -> dict:
    """Assemble the JSON state for a single-check checkpoint."""
    snapshot = None
    if strategy is not None:
        snapshot = strategy.snapshot()  # type: ignore[attr-defined]
    return {
        "kind": "check",
        "phase": phase,
        "test": test_to_dict(test),
        "config": config_to_dict(config),
        "strategy": snapshot,
        "observations": (
            observations_to_xml(observations) if observations is not None else None
        ),
        "phase1": _phase1_to_dict(phase1),
        "phase1_seconds": phase1_seconds,
        "phase2": phase2
        or {"executions": 0, "full": 0, "stuck": 0, "divergent": 0, "seconds": 0.0},
        "budget": budget_snapshot,
    }


@dataclass
class CheckResume:
    """Parsed resume state handed to ``check_with_harness``."""

    phase: str  #: "phase1" or "phase2"
    strategy: SchedulingStrategy | None
    observations: ObservationSet | None
    phase1: Phase1Stats = field(default_factory=Phase1Stats)
    phase1_seconds: float = 0.0
    phase2: dict = field(default_factory=dict)
    budget_snapshot: dict | None = None


def parse_check_state(document: dict) -> tuple[FiniteTest, CheckConfig, CheckResume]:
    """Turn a loaded ``kind="check"`` checkpoint into resumable pieces."""
    try:
        test = test_from_dict(document["test"])
        config = config_from_dict(document.get("config", {}))
        phase = document["phase"]
        if phase not in ("phase1", "phase2"):
            raise ValueError(f"unknown phase {phase!r}")
        strategy = None
        if document.get("strategy") is not None:
            strategy = strategy_from_snapshot(document["strategy"])
        observations = None
        if document.get("observations") is not None:
            observations = observations_from_xml(document["observations"])
        resume = CheckResume(
            phase=phase,
            strategy=strategy,
            observations=observations,
            phase1=_phase1_from_dict(document.get("phase1", {})),
            phase1_seconds=float(document.get("phase1_seconds", 0.0)),
            phase2=dict(document.get("phase2", {})),
            budget_snapshot=document.get("budget"),
        )
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed check checkpoint: {exc}") from exc
    return test, config, resume
