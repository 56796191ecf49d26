"""Worker-side execution of one generation candidate (``kind="generate"``).

Runs inside the :mod:`repro.exec.sandbox` worker process, so a candidate
that crashes or wedges the subject kills a worker — not the campaign —
and the supervisor's retry/quarantine machinery contains it.  Compared
to the plain ``"check"`` kind, a generate task additionally harvests the
execution fingerprints (the coverage signal the coordinator feeds its
corpus-admission decision) and renders the root-cause failure record in
the worker, so violation objects never cross the pipe.

Everything beyond the verdict travels inside the ``summary`` dict: the
supervisor's :class:`~repro.exec.supervisor.TaskOutcome` only carries
``verdict`` and ``summary`` across retries and the flaky-verdict guard.
"""

from __future__ import annotations

__all__ = ["run_generate_task"]


def run_generate_task(spec: dict, *, scheduler=None, control=None) -> dict:
    """Check one candidate; reply with coverage and failure payloads.

    *scheduler* and *control* are the in-process executor's (see
    :func:`repro.exec.sandbox._run_task`); a worker passes neither.
    """
    from repro.core.campaign import TestSummary
    from repro.core.checker import check
    from repro.exec.sandbox import _resolve_subject
    from repro.generate.dedup import failure_record
    from repro.reduction import FingerprintSet

    subject, test, config = _resolve_subject(spec)
    fingerprints = FingerprintSet()
    result = check(
        subject, test, config, scheduler, control=control,
        fingerprints=fingerprints,
    )
    summary = TestSummary.from_result(result).to_dict()
    summary["kind"] = "generate"
    summary["executions"] = result.phase1.executions + result.phase2_executions
    summary["fingerprints"] = fingerprints.snapshot()
    summary["failure"] = (
        failure_record(result.violation, subject.name, test)
        if result.violation is not None
        else None
    )
    return {"verdict": result.verdict, "summary": summary}
