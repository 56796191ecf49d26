"""Exploration budgets: first-class bounds on how much a check may explore.

The paper's algorithm is exhaustive; real campaigns are not.  Related work
on monitoring cost (P-compositionality, decrease-and-conquer monitoring)
treats the exploration budget as part of the problem statement, and so
does this module: a :class:`ExplorationBudget` expresses *how much* work a
check or campaign may spend — wall-clock, executions, decisions — and a
:class:`BudgetMeter` tracks consumption across phases (and across
checkpoint/resume cycles, which is why it is snapshotable).

When a budget trips, the check stops with an explicit ``EXHAUSTED``
verdict carrying partial statistics, never by silently truncating the
search: an exhausted PASS-so-far is a weaker claim than a completed PASS
and the result says so.  (The legacy ``max_*_executions`` knobs on
:class:`~repro.core.checker.CheckConfig` keep their historical
silent-truncation semantics; budgets are the loud, resumable variant.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.runtime import ExecutionOutcome

__all__ = ["BudgetMeter", "ExplorationBudget", "ExplorationControl"]


@dataclass(frozen=True)
class ExplorationBudget:
    """Bounds on one exploration (all optional, None = unbounded).

    ``deadline_seconds`` caps total wall-clock time, ``max_executions``
    the number of executions across both phases, ``max_decisions`` the
    total scheduling decisions (a machine-independent work measure).
    """

    deadline_seconds: float | None = None
    max_executions: int | None = None
    max_decisions: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        if self.max_executions is not None and self.max_executions < 0:
            raise ValueError("max_executions must be >= 0")
        if self.max_decisions is not None and self.max_decisions < 0:
            raise ValueError("max_decisions must be >= 0")

    def to_dict(self) -> dict:
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_executions": self.max_executions,
            "max_decisions": self.max_decisions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationBudget":
        return cls(
            deadline_seconds=data.get("deadline_seconds"),
            max_executions=data.get("max_executions"),
            max_decisions=data.get("max_decisions"),
        )


@dataclass
class BudgetMeter:
    """Accumulated consumption against one :class:`ExplorationBudget`.

    ``elapsed`` carries time spent in *previous* sessions (restored from a
    checkpoint) so a resumed run honours the original deadline; the live
    session's clock starts at :meth:`start`.
    """

    budget: ExplorationBudget
    elapsed: float = 0.0
    executions: int = 0
    decisions: int = 0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> None:
        if self._started_at is None:
            self._started_at = time.monotonic()

    def spent_seconds(self) -> float:
        live = 0.0
        if self._started_at is not None:
            live = time.monotonic() - self._started_at
        return self.elapsed + live

    def note(self, outcome: ExecutionOutcome) -> None:
        """Record one finished execution."""
        self.charge(len(outcome.decisions))

    def charge(self, decisions: int) -> None:
        """Record one finished execution of *decisions* decisions."""
        self.executions += 1
        self.decisions += decisions

    def exceeded(self) -> str | None:
        """The first tripped bound, or None while within budget."""
        budget = self.budget
        if (
            budget.deadline_seconds is not None
            and self.spent_seconds() >= budget.deadline_seconds
        ):
            return "deadline"
        if (
            budget.max_executions is not None
            and self.executions >= budget.max_executions
        ):
            return "executions"
        if (
            budget.max_decisions is not None
            and self.decisions >= budget.max_decisions
        ):
            return "decisions"
        return None

    def snapshot(self) -> dict:
        return {
            "budget": self.budget.to_dict(),
            "elapsed": self.spent_seconds(),
            "executions": self.executions,
            "decisions": self.decisions,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "BudgetMeter":
        return cls(
            budget=ExplorationBudget.from_dict(data.get("budget", {})),
            elapsed=float(data.get("elapsed", 0.0)),
            executions=int(data.get("executions", 0)),
            decisions=int(data.get("decisions", 0)),
        )


@dataclass
class ExplorationControl:
    """The halt signal threaded through a check or campaign.

    Combines a budget meter with an external stop flag (set by the signal
    handlers for graceful shutdown).  Exploration loops call
    :meth:`halt_reason` between executions and wind down when it returns a
    reason; "interrupted" (the stop flag) takes precedence over budget
    exhaustion so an interrupt is reported as such even when the deadline
    lapsed while unwinding.
    """

    budget: ExplorationBudget | None = None
    meter: BudgetMeter | None = None
    stop: Callable[[], bool] | None = None

    def __post_init__(self) -> None:
        if self.meter is None and self.budget is not None:
            self.meter = BudgetMeter(self.budget)

    def restore(self, snapshot: dict | None) -> None:
        """Carry a checkpointed meter's consumption into this control.

        The bounds in force are this control's (none: unbounded); the
        elapsed time and the counts come from *snapshot*, so a resumed run
        spends its budget as a total across sessions.
        """
        if snapshot is not None:
            meter = BudgetMeter.from_snapshot(snapshot)
            meter.budget = self.budget or ExplorationBudget()
            self.meter = meter

    def snapshot(self) -> dict | None:
        """What a checkpoint stores for :meth:`restore` (None: no meter)."""
        return self.meter.snapshot() if self.meter is not None else None

    def start(self) -> None:
        if self.meter is not None:
            self.meter.start()

    def note(self, outcome: ExecutionOutcome) -> None:
        if self.meter is not None:
            self.meter.note(outcome)

    def charge(self, decisions: int) -> None:
        """:meth:`note` for an execution known by its decision count (one
        phase 1 enumerated without running it)."""
        if self.meter is not None:
            self.meter.charge(decisions)

    def halt_reason(self) -> str | None:
        if self.stop is not None and self.stop():
            return "interrupted"
        if self.meter is not None:
            return self.meter.exceeded()
        return None
