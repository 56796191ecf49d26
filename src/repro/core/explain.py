"""Violation diagnostics: *why* does this history have no witness?

The paper notes that "the first step in analyzing such a report is to
examine the observation file for a clue to why it does not contain a
serial witness".  This module automates that examination.  For a full
history H without a witness there are exactly two possible reasons:

1. **Ordering conflict** — serial histories with H's profile exist, but
   each one inverts some pair that H orders: an operation pair
   ``e1 <H e2`` placed as ``e2 <S e1``.  The diagnosis lists, per
   candidate, the first violated constraint.
2. **Response mismatch** — no serial execution produced H's per-thread
   responses at all.  The diagnosis finds the serial histories whose
   *invocations* match and reports which operations' responses differ
   (e.g. "TryTake() returned 'Fail', serially it returns 200 or 400").

For a stuck history the analogous question is which pending operation
has no stuck serial justification, and what the serial executions did
instead (completed the operation / never reached this profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.checker import NO_STUCK_WITNESS, Violation
from repro.core.events import Operation, Response
from repro.core.history import History, Profile, SerialHistory
from repro.core.spec import ObservationSet
from repro.core.witness import is_witness_for

__all__ = ["Diagnosis", "diagnose_monitor_failure", "explain_violation"]


@dataclass
class Diagnosis:
    """Structured explanation of a witness-search failure."""

    #: "ordering-conflict", "response-mismatch", "blocking" (all three
    #: against the synthesized spec), "model-mismatch" or "model-blocking"
    #: (the monitor backend: no linearization matches the explicit
    #: sequential model, or none leaves it blocking a pending operation).
    kind: str
    #: per rejected candidate: (candidate, first violated <H pair).
    ordering_conflicts: list[tuple[SerialHistory, Operation, Operation]] = field(
        default_factory=list
    )
    #: operations whose responses no serial execution reproduces, with
    #: the response values the serial executions produced instead.
    response_mismatches: list[tuple[Operation, set]] = field(default_factory=list)
    pending_op: Operation | None = None
    notes: list[str] = field(default_factory=list)
    #: free-form body lines rendered verbatim under the headline (the
    #: monitor backend's counterexample and what the model offered).
    details: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines: list[str] = []
        if self.kind == "ordering-conflict":
            lines.append(
                "serial executions produce these per-thread results, but "
                "only in orders the concurrent history forbids:"
            )
            for candidate, first, second in self.ordering_conflicts:
                lines.append(
                    f"  candidate <{candidate}> places {second} before "
                    f"{first}, yet {first} completed before {second} began"
                )
        elif self.kind == "model-mismatch":
            lines.append(
                "no linearization of this history is an execution of the "
                "sequential model:"
            )
        elif self.kind == "model-blocking":
            lines.append(
                "no linearization of the completed operations leaves the "
                "sequential model in a state that blocks the stuck operation:"
            )
        elif self.kind == "response-mismatch":
            lines.append(
                "no serial execution produces these responses at all:"
            )
            for op, serial_values in self.response_mismatches:
                observed = "blocked" if op.response is None else str(op.response)
                allowed = (
                    ", ".join(sorted(map(str, serial_values)))
                    if serial_values
                    else "(none — this invocation layout never occurs serially)"
                )
                lines.append(
                    f"  {op} observed {observed}; serial executions give: {allowed}"
                )
        else:
            lines.append(
                f"operation {self.pending_op} blocked forever, but every "
                "serial execution reaching this point lets it complete"
            )
        lines.extend(f"  {detail}" for detail in self.details)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _invocation_layout(profile: Profile) -> tuple:
    """Profile with the responses stripped — the per-thread call shape."""
    return tuple(
        tuple(invocation for invocation, _response in row) for row in profile
    )


def _serial_responses_for(
    observations: ObservationSet, layout: tuple, n_threads: int
) -> dict[tuple[int, int], set]:
    """All responses the serial histories give each (thread, index) slot,
    among serial histories whose invocation layout matches."""
    out: dict[tuple[int, int], set] = {}
    for candidate in observations.full:
        profile = candidate.profile_for(n_threads)
        if _invocation_layout(profile) != layout:
            continue
        for thread, row in enumerate(profile):
            for index, (_invocation, response) in enumerate(row):
                out.setdefault((thread, index), set()).add(response)
    return out


def explain_violation(
    violation: Violation, observations: ObservationSet
) -> Diagnosis:
    """Diagnose a NO_FULL_WITNESS / NO_STUCK_WITNESS violation."""
    history = violation.history
    assert history is not None

    if violation.kind == NO_STUCK_WITNESS:
        diagnosis = Diagnosis(kind="blocking", pending_op=violation.pending_op)
        projected = history.project_pending(violation.pending_op)
        if not observations.stuck_candidates(projected.profile):
            diagnosis.notes.append(
                "no stuck serial history matches the completed operations "
                "around the blocked one"
            )
        return diagnosis

    candidates = observations.full_candidates(history.profile)
    if candidates:
        diagnosis = Diagnosis(kind="ordering-conflict")
        for candidate in candidates:
            conflict = _first_order_conflict(candidate, history)
            if conflict is not None:
                diagnosis.ordering_conflicts.append(
                    (candidate, conflict[0], conflict[1])
                )
        return diagnosis

    diagnosis = Diagnosis(kind="response-mismatch")
    layout = _invocation_layout(history.profile)
    serial_responses = _serial_responses_for(
        observations, layout, history.n_threads
    )
    for op in history.operations:
        allowed = serial_responses.get((op.thread, op.op_index), set())
        if op.response not in allowed:
            diagnosis.response_mismatches.append((op, allowed))
    if not serial_responses:
        diagnosis.notes.append(
            "the serial enumeration never even reached this combination "
            "of completed operations (likely it always blocks earlier)"
        )
    return diagnosis


def diagnose_monitor_failure(verdict, model) -> Diagnosis:
    """Diagnose a monitor-backend failure (no observation set involved).

    *verdict* is a failed :class:`repro.monitor.dispatch.MonitorVerdict`;
    its counterexample — the online engine's failing return or unjustified
    pending operation, with what the model offered instead — becomes a
    :class:`Diagnosis` rendered by the same report path as the
    observation-backend diagnoses: one format for both backends.
    """
    pending = verdict.failed_pending
    diagnosis = Diagnosis(
        kind="model-mismatch" if pending is None else "model-blocking",
        pending_op=pending,
    )
    if verdict.counterexample is not None:
        diagnosis.details.extend(verdict.counterexample.describe().splitlines())
    diagnosis.notes.append(
        f"checked against sequential model {model.name!r} "
        f"(engine {verdict.engine}, {verdict.configurations} configurations)"
    )
    return diagnosis


def _first_order_conflict(
    candidate: SerialHistory, history: History
) -> tuple[Operation, Operation] | None:
    """The first ``e1 <H e2`` pair that *candidate* inverts, if any."""
    if is_witness_for(candidate, history):
        return None  # pragma: no cover - callers pass rejected candidates
    position = candidate.positions.get
    for first, second in history.precedence:
        p1 = position(first)
        p2 = position(second)
        if p1 is not None and p2 is not None and p1 >= p2:
            return (history.operation_map[first], history.operation_map[second])
    return None
