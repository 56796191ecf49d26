"""Multi-object checking via the Theorem 1 reduction.

The paper restricts its formal attention to single-object histories and
notes (footnote to Definition 1) that "Theorem 1 [Herlihy & Wing] proves
that linearizability of multi-object histories can be soundly reduced to
linearizability of single-object histories".  This module implements
that reduction:

* a multi-object finite test tags each invocation with a ``target``
  object name, and the subject factory returns a mapping
  ``{name: object}``;
* one exploration runs the combined test; every (serial or concurrent)
  history is *projected* per object — keep the events of operations
  targeting that object, renumbering per-thread indices;
* phase 1 synthesizes one specification per object from the projected
  serial histories (each must be deterministic); phase 2 requires every
  projected concurrent history to be linearizable against its object's
  specification.

By Theorem 1, PASS here implies the combined histories are linearizable
with respect to the composition of the per-object specifications; a FAIL
names the object whose projection has no witness.

Note the locality caveat the theorem carries: the reduction is sound for
*linearizability* precisely because linearizability is a local property;
the determinism requirement is likewise checked per object.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core import checker
from repro.core.budget import ExplorationControl
from repro.core.checker import (
    NONDETERMINISTIC,
    CheckConfig,
    CheckResult,
    Violation,
)
from repro.core.events import Event
from repro.core.harness import Phase1Stats, TestHarness
from repro.core.history import History
from repro.core.spec import ObservationSet
from repro.core.testcase import FiniteTest
from repro.runtime import DFSStrategy

__all__ = ["MultiCheckResult", "check_multi", "project_object"]


def project_object(history: History, target: str | None) -> History:
    """The sub-history of operations on *target*, indices renumbered."""
    keep = {
        op.key for op in history.operations if op.invocation.target == target
    }
    counters: dict[tuple[int, int], int] = {}
    next_index: dict[int, int] = {}
    events: list[Event] = []
    for event in history.events:
        key = (event.thread, event.op_index)
        if key not in keep:
            continue
        if key not in counters:
            counters[key] = next_index.get(event.thread, 0)
            next_index[event.thread] = counters[key] + 1
        events.append(
            Event(
                kind=event.kind,
                thread=event.thread,
                op_index=counters[key],
                invocation=event.invocation,
                response=event.response,
            )
        )
    # The projection is stuck iff it still holds a pending operation.
    projected = History(events, history.n_threads, stuck=False)
    if history.stuck and projected.pending_operations:
        projected = History(events, history.n_threads, stuck=True)
    return projected


class MultiCheckResult(CheckResult):
    """CheckResult with per-object observation sets and failure target."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.per_object: dict[str | None, ObservationSet] = {}
        self.failed_object: str | None = None


def _targets_of(test: FiniteTest) -> list[str | None]:
    targets: list[str | None] = []
    for column in list(test.columns) + [test.init, test.final]:
        for invocation in column:
            if invocation.target not in targets:
                targets.append(invocation.target)
    return targets


def check_multi(
    harness: TestHarness,
    test: FiniteTest,
    config: CheckConfig | None = None,
    *,
    control: ExplorationControl | None = None,
) -> MultiCheckResult:
    """Two-phase check of a multi-object test via per-object projection.

    Phase 2 is the checker's loop with a judge that asks Definitions 1/2
    of every projection; *control* (or ``config.budget``) meters it.  The
    projected phase-1 fold below always runs whole, so no specification
    is ever partial.
    """
    cfg = config or CheckConfig()
    targets = _targets_of(test)

    # ---- Phase 1: one serial enumeration, projected per object.
    t0 = time.perf_counter()
    stats = Phase1Stats()
    per_object: dict[str | None, ObservationSet] = {
        target: ObservationSet(test.n_threads) for target in targets
    }
    for outcome in harness.explore_serial(
        test, DFSStrategy(preemption_bound=None), cfg.max_serial_executions
    ):
        stats.executions += 1
        history = harness.history_from_outcome(outcome, test)
        for target in targets:
            projection = project_object(history, target)
            serial = projection.to_serial()
            if per_object[target].add(serial):
                stats.histories += 1
                if serial.stuck:
                    stats.stuck_histories += 1

    result = MultiCheckResult(
        verdict="PASS",
        test=test,
        phase1=stats,
        phase1_seconds=time.perf_counter() - t0,
    )
    result.per_object = per_object
    for target, observations in per_object.items():
        if not observations.is_deterministic:
            result.verdict = "FAIL"
            result.failed_object = target
            result.violations.append(
                Violation(
                    kind=NONDETERMINISTIC,
                    test=test,
                    nondeterminism=observations.nondeterminism,
                )
            )
            return result

    # ---- Phase 2: one concurrent exploration, checked per object.
    def judge(history: History, outcome: Any) -> Violation | None:
        for target in targets:
            violation = checker._observation_violation(
                project_object(history, target), per_object[target], test, outcome
            )
            if violation is not None:
                result.failed_object = target
                return violation
        return None

    checker._run_phase2(
        harness,
        test,
        None,
        cfg,
        result,
        control=checker._control_for(cfg, control),
        judge=judge,
    )
    return result
