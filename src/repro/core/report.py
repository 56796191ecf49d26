"""Human-readable violation reports (paper Figure 7, bottom).

When Line-Up finds a violation it reports the violating concurrent
history in the same notation as the observation file, together with the
test matrix and — because "the first step in analyzing such a report is
to examine the observation file for a clue" — the matching observation
section (the serial histories with the same per-thread operations, if
any).
"""

from __future__ import annotations

from repro.core.checker import (
    NO_FULL_WITNESS,
    NO_STUCK_WITNESS,
    NONDETERMINISTIC,
    CheckResult,
    Violation,
)
from repro.core.history import History
from repro.core.observations import _op_ids_for_profile, history_line
from repro.core.spec import ObservationSet

__all__ = [
    "check_result_to_dict",
    "render_check_result",
    "render_generation_report",
    "render_violation",
]


def _thread_label(thread: int) -> str:
    names = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return names[thread] if thread < 26 else f"T{thread}"


def _render_ops_table(history: History) -> list[str]:
    ids = _op_ids_for_profile(history.profile)
    lines = []
    for thread in range(history.n_threads):
        entries = []
        for op in history.operations:
            if op.thread != thread:
                continue
            suffix = "B" if op.pending else ""
            entries.append(f"{ids[op.key]}{suffix}")
        lines.append(f'  <thread id="{_thread_label(thread)}">{" ".join(entries)}</thread>')
    for op in sorted(history.operations, key=lambda o: ids[o.key]):
        attrs = [f'id="{ids[op.key]}"', f'name="{op.invocation.method}"']
        if op.invocation.args:
            attrs.append(f'args="{op.invocation.args!r}"')
        if op.response is not None:
            if op.response.kind == "raised":
                attrs.append(f'raised="{op.response.value}"')
            else:
                attrs.append(f'result="{op.response.value!r}"')
        lines.append(f"  <op {' '.join(attrs)} />")
    lines.append(f"  <history>{history_line(history, ids)}</history>")
    return lines


def render_violation(
    violation: Violation, observations: ObservationSet | None = None
) -> str:
    """Render one violation the way Line-Up reports it to the user."""
    lines = ["Line-Up encountered a violation of deterministic linearizability."]
    lines.append("")
    lines.append("Test:")
    for row in violation.test.render_matrix().splitlines():
        lines.append(f"  {row}")
    lines.append("")
    if violation.kind == NONDETERMINISTIC:
        assert violation.nondeterminism is not None
        lines.append("The serial specification is nondeterministic:")
        lines.append(f"  {violation.nondeterminism.describe()}")
        lines.append(f"  history 1: {violation.nondeterminism.first}")
        lines.append(f"  history 2: {violation.nondeterminism.second}")
        return "\n".join(lines)

    assert violation.history is not None
    if violation.kind == NO_FULL_WITNESS:
        lines.append("Non-linearizable concurrent history (no serial witness):")
    else:
        lines.append(
            f"Erroneous blocking: operation {violation.pending_op} is stuck, "
            "but no serial execution blocks there:"
        )
    lines.extend(_render_ops_table(violation.history))
    lines.append("")
    lines.append("Timeline:")
    from repro.core.timeline import render_timeline

    for row in render_timeline(violation.history).splitlines():
        lines.append(f"  {row}")

    if violation.diagnosis is not None:
        # Monitor-backend violations carry their diagnosis pre-computed
        # (there is no observation set to examine) — same report shape.
        lines.append("")
        lines.append("Diagnosis:")
        for row in violation.diagnosis.describe().splitlines():
            lines.append(f"  {row}")
        return "\n".join(lines)

    if observations is not None:
        profile = (
            violation.history.profile
            if violation.kind == NO_FULL_WITNESS
            else violation.history.project_pending(violation.pending_op).profile
        )
        candidates = (
            observations.full_candidates(profile)
            if violation.kind == NO_FULL_WITNESS
            else observations.stuck_candidates(profile)
        )
        lines.append("")
        if candidates:
            ids = _op_ids_for_profile(profile)
            lines.append(
                "Serial histories with matching per-thread operations "
                "(none is a witness):"
            )
            for candidate in candidates:
                lines.append(f"  <history>{history_line(candidate, ids)}</history>")
        else:
            lines.append(
                "No serial execution produced these per-thread operations "
                "and results at all."
            )
        from repro.core.explain import explain_violation

        lines.append("")
        lines.append("Diagnosis:")
        for row in explain_violation(violation, observations).describe().splitlines():
            lines.append(f"  {row}")
    return "\n".join(lines)


def render_check_result(result: CheckResult) -> str:
    """Render a full CheckResult (verdict, stats, violations)."""
    divergent = ""
    if result.phase2_divergent:
        divergent = f", {result.phase2_divergent} divergent"
    p1_divergent = ""
    if result.phase1.divergent:
        p1_divergent = f", {result.phase1.divergent} divergent executions"
    lines = [
        f"verdict: {result.verdict}",
        (
            f"phase 1: {result.phase1.executions} serial executions, "
            f"{result.phase1.histories} histories "
            f"({result.phase1.stuck_histories} stuck){p1_divergent}, "
            f"{result.phase1_seconds * 1000:.1f} ms"
        ),
        (
            f"phase 2: {result.phase2_executions} concurrent executions "
            f"({result.phase2_full} full, {result.phase2_stuck} stuck{divergent}), "
            f"{result.phase2_seconds * 1000:.1f} ms"
        ),
        (
            f"reduction: {result.reduction} — "
            f"{result.schedules_explored} schedules explored, "
            f"{result.equivalence_classes} equivalence classes, "
            f"{result.schedules_pruned} pruned"
        ),
    ]
    if result.exhausted_reason is not None:
        what = (
            "interrupted"
            if result.exhausted_reason == "interrupted"
            else f"budget exhausted ({result.exhausted_reason})"
        )
        lines.append(
            f"note: exploration incomplete — {what}; statistics are partial"
        )
    for violation in result.violations:
        lines.append("")
        lines.append(render_violation(violation, result.observations))
    return "\n".join(lines)


def check_result_to_dict(result: CheckResult) -> dict:
    """JSON-able summary of a :class:`CheckResult` (machine consumers)."""
    return {
        "verdict": result.verdict,
        "phase1": {
            "executions": result.phase1.executions,
            "histories": result.phase1.histories,
            "stuck_histories": result.phase1.stuck_histories,
            "divergent": result.phase1.divergent,
            "seconds": result.phase1_seconds,
            "complete": result.phase1.complete,
        },
        "phase2": {
            "executions": result.phase2_executions,
            "full": result.phase2_full,
            "stuck": result.phase2_stuck,
            "judged": result.phase2_judged,
            "divergent": result.phase2_divergent,
            "seconds": result.phase2_seconds,
            "complete": result.phase2_complete,
        },
        "reduction": {
            "mode": result.reduction,
            "schedules_explored": result.schedules_explored,
            "equivalence_classes": result.equivalence_classes,
            "schedules_pruned": result.schedules_pruned,
        },
        "exhausted_reason": result.exhausted_reason,
        "violations": [
            {"kind": violation.kind, "description": violation.describe()}
            for violation in result.violations
        ],
    }


def render_generation_report(report) -> str:
    """Render a :class:`repro.generate.GenerationReport` for the terminal.

    The curve is summarized rather than dumped: its first and last
    points, plus where the first failure landed, tell the
    guided-vs-uniform story; the full curve travels in ``--json``.
    """
    lines = [
        f"verdict: {report.verdict}",
        (
            f"generation: {report.candidates} candidates "
            f"({report.skipped} planning dead-ends), "
            f"{report.executions} executions"
        ),
        (
            f"coverage: {report.classes} equivalence classes, "
            f"corpus of {report.corpus_size}"
        ),
    ]
    if report.curve:
        first_e, first_c = report.curve[0]
        last_e, last_c = report.curve[-1]
        lines.append(
            f"discovery: {first_c} classes after {first_e} executions → "
            f"{last_c} after {last_e}"
        )
    if report.failures:
        dup = (
            f" (+{report.duplicate_failures} duplicate hits)"
            if report.duplicate_failures
            else ""
        )
        lines.append(
            f"failures: {len(report.failures)} distinct root cause(s){dup}, "
            f"first after {report.first_failure_executions} executions"
        )
        for key in sorted(report.failures):
            failure = report.failures[key]
            lines.append(
                f"  [{failure['fingerprint']}] {failure['kind']} ×"
                f"{failure['count']} — {failure['matrix']}"
            )
            lines.append(f"    {failure['description']}")
    if report.converged:
        lines.append(
            "note: mutation ran dry — the reachable matrix space is "
            "exhausted for these bounds"
        )
    if report.stop_reason is not None:
        what = (
            "interrupted"
            if report.stop_reason == "interrupted"
            else f"budget exhausted ({report.stop_reason})"
        )
        lines.append(f"note: campaign incomplete — {what}")
    return "\n".join(lines)
