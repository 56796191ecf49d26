"""Extensions for nondeterministic specifications (paper Section 6).

The paper's conclusion names two desired extensions: support for
*asynchronous* methods (like the cancellation of finding K) and for
*nondeterministic* methods, "such as methods that may fail on
interference" (findings H/I/J).  This module implements both as a
relaxed checking mode:

* **Nondeterministic specifications.**  ``check_relaxed`` skips the
  determinism gate of Fig. 5 line 4: phase 1 simply records the (possibly
  nondeterministic) set of serial behaviours and phase 2 checks
  membership against all of them.  The completeness guarantee of
  Theorem 5 weakens — a PASS no longer implies deterministic
  linearizability, only linearizability with respect to the synthesized
  (nondeterministic) specification — but every FAIL is still a genuine
  non-linearizability proof.  This absorbs asynchronous-effect classes
  like CancellationTokenSource, whose serial behaviour is legitimately
  nondeterministic.

* **Interference failures.**  An :class:`InterferencePolicy` declares,
  per method, responses that the specification additionally allows
  whenever the operation *overlaps* some other operation (an unordered
  bag's ``TryTake`` may miss elements that are mid-operation; a lagging
  ``Count`` may read 0).  A spuriously-failed operation is semantically a
  no-op, so the relaxed witness check removes those operations from the
  history and looks for a serial witness of the *remaining* operations —
  which requires synthesizing specifications for the reduced tests,
  cached per reduction.

With the policies of :data:`DOTNET_POLICIES`, the documented behaviours
H, I and J stop being reported while every real bug (A–G) and the truly
nonlinearizable Barrier (L) are still caught — exactly the triage the
paper wished for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core import checker
from repro.core.budget import ExplorationControl
from repro.core.checker import CheckConfig, CheckResult, Violation
from repro.core.events import Operation
from repro.core.harness import TestHarness
from repro.core.history import History
from repro.core.spec import ObservationSet
from repro.core.testcase import FiniteTest

__all__ = [
    "DOTNET_POLICIES",
    "InterferencePolicy",
    "InterferenceRule",
    "check_relaxed",
]


@dataclass(frozen=True)
class InterferenceRule:
    """One method that may spuriously produce *responses* under interference.

    ``method`` names the invocation; ``responses`` are the response
    *values* the specification additionally allows when the operation
    overlaps a qualifying interferer.  ``interferers`` narrows which
    overlapping methods count — the precision matters: .NET documents
    that ``TryTake`` may fail when racing other *consumers*, so a
    ``TryTake`` that fails while overlapping only an ``Add`` (the Fig. 1
    bug) is still a violation.  ``interferers=None`` accepts any
    overlapping operation.  A matching operation is treated as a no-op
    (it must not have affected the object) for witness purposes.
    """

    method: str
    responses: tuple = ("Fail",)
    interferers: tuple[str, ...] | None = None


class InterferencePolicy:
    """A set of interference rules, keyed by method name."""

    def __init__(self, rules: Iterable[InterferenceRule] = ()) -> None:
        self._rules = {rule.method: rule for rule in rules}

    def __bool__(self) -> bool:
        return bool(self._rules)

    def allows(self, op: Operation, history: History) -> bool:
        """Whether *op*'s response is excusable as an interference effect."""
        rule = self._rules.get(op.invocation.method)
        if rule is None or op.response is None:
            return False
        if op.response.kind != "ok" or op.response.value not in rule.responses:
            return False
        return any(
            history.overlapping(op, other)
            for other in history.operations
            if other.key != op.key
            and (
                rule.interferers is None
                or other.invocation.method in rule.interferers
            )
        )

    def relaxable_ops(self, history: History) -> tuple[Operation, ...]:
        """All complete operations of *history* excusable under this policy."""
        return tuple(
            op
            for op in history.complete_operations
            if self.allows(op, history)
        )


#: The policies matching the .NET team's documentation updates for the
#: intentional nondeterminism findings H, I and J:
#: * H — an unordered bag's TryTake/TryPeek may miss elements that any
#:   concurrent operation is touching;
#: * I — Count lags producers: it may read 0 while an Add is in flight;
#: * J — TryTake's zero-timeout wait may fail when racing other
#:   *consumers* (but failing against only an Add is the Fig. 1 bug).
DOTNET_POLICIES: dict[str, InterferencePolicy] = {
    "ConcurrentBag": InterferencePolicy(
        [InterferenceRule("TryTake"), InterferenceRule("TryPeek")]
    ),
    "BlockingCollection": InterferencePolicy(
        [
            InterferenceRule("TryTake", interferers=("TryTake", "Take")),
            InterferenceRule("Count", responses=(0,), interferers=("Add", "TryAdd")),
        ]
    ),
}


def _reduced_test(test: FiniteTest, removed: frozenset) -> FiniteTest:
    """The finite test with the operations in *removed* deleted.

    ``removed`` holds (thread, op_index) keys in the harness's numbering:
    thread 0's init ops come first in its column numbering, final ops
    last, so positions map directly onto the concatenated sequences.
    """
    init = list(test.init)
    final = list(test.final)
    columns = [list(column) for column in test.columns]
    for thread, op_index in sorted(removed, reverse=True):
        if thread == 0:
            if op_index < len(init):
                del init[op_index]
                continue
            column_index = op_index - len(init)
            if column_index < len(columns[0]):
                del columns[0][column_index]
                continue
            del final[column_index - len(columns[0])]
        else:
            del columns[thread][op_index]
    return FiniteTest.of(columns, init=init, final=final)


def _reduced_history(history: History, removed: frozenset) -> History:
    """The history with the removed operations' events deleted and the
    remaining per-thread op indices renumbered to match the reduced test."""
    # Renumber: for each thread, dropped indices shift later ops down.
    shift: dict[tuple[int, int], int] = {}
    for thread in range(history.n_threads):
        dropped = sorted(i for t, i in removed if t == thread)
        for op in history.operations:
            if op.thread != thread:
                continue
            offset = sum(1 for d in dropped if d < op.op_index)
            shift[op.key] = op.op_index - offset
    events = []
    for event in history.events:
        key = (event.thread, event.op_index)
        if key in removed:
            continue
        events.append(
            type(event)(
                kind=event.kind,
                thread=event.thread,
                op_index=shift[key],
                invocation=event.invocation,
                response=event.response,
            )
        )
    return History(events, history.n_threads, stuck=history.stuck)


def check_relaxed(
    harness: TestHarness,
    test: FiniteTest,
    config: CheckConfig | None = None,
    policy: InterferencePolicy | None = None,
    *,
    control: ExplorationControl | None = None,
) -> CheckResult:
    """Two-phase check with a nondeterministic spec and interference rules.

    Like :func:`repro.core.checker.check_with_harness` but: (1) phase 1
    does not require determinism, and (2) a history without a witness may
    be excused by removing policy-allowed spurious operations and finding
    a witness for the rest against the reduced test's synthesized
    specification.  Both phases are the checker's own — budget, interrupt,
    trace dump, digest and PASS memo included; only the judge differs.
    """
    cfg = config or CheckConfig()
    policy = policy or InterferencePolicy()
    control = checker._control_for(cfg, control)

    # No determinism gate — that is the point of the extension.
    result = checker._run_phase1(
        harness, test, cfg, control=control, deterministic=False
    )
    if not result.passed:
        return result
    observations = result.observations

    reduced_specs: dict[frozenset, ObservationSet] = {}

    def reduced_observations(removed: frozenset) -> ObservationSet:
        # Enumerated whole, outside the budget: a partial reduced
        # specification would excuse too little, i.e. FAIL unsoundly.  It
        # needs no cap: a reduced test is the full one minus operations,
        # and the phase-1 gate saw the full enumeration finish.
        if removed not in reduced_specs:
            reduced_specs[removed] = harness.run_serial(
                _reduced_test(test, removed)
            )[0]
        return reduced_specs[removed]

    from repro.reduction import FingerprintSet

    def judge(history: History, outcome: Any) -> Violation | None:
        violation = checker._observation_violation(
            history, observations, test, outcome
        )
        if violation is None:
            return None
        relaxable = policy.relaxable_ops(history)
        if not relaxable:
            return violation
        removed = frozenset(op.key for op in relaxable)
        # Excused when the rest of the history has a witness without them.
        rest_fails = checker._observation_violation(
            _reduced_history(history, removed),
            reduced_observations(removed),
            test,
            outcome,
        )
        return None if rest_fails is None else violation

    checker._run_phase2(
        harness, test, observations, cfg, result,
        control=control, fingerprints=FingerprintSet(), judge=judge,
    )
    return result
