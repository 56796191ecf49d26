"""Open-history (indeterminate-operation) semantics.

An indeterminate operation — timed out or connection-dropped in a live
recording — is a pending op in a non-stuck history.  The checker must
admit both resolutions (took effect / never happened), report which one
the witness chose, and never demand a blocking justification for it.
The resolution is read where ``live`` reads it: ``watch_trace`` over the
recorded trace, rendered by ``render_live_result``.
"""

from __future__ import annotations

from repro.live import LiveResult, render_live_result
from repro.monitor import LiveTraceWriter, get_model, monitor_history
from repro.stream import watch_trace

from .conftest import call, hist, ret


def live_check(tmp_path, *events, n=2):
    """Record *events* as a finished live trace — an operation that never
    returns is marked indeterminate — and check it as ``live`` does;
    return the watch result and the report."""
    path = str(tmp_path / "live.trace.jsonl")
    returned = {(e.thread, e.op_index) for e in events if e.is_return}
    with LiveTraceWriter(path, n, model="counter") as writer:
        for event in events:
            if event.is_call:
                writer.record_call(
                    event.thread, event.op_index, event.invocation, 0.0
                )
            else:
                writer.record_return(
                    event.thread, event.op_index, event.response, 0.0
                )
        for event in events:
            if event.is_call and (event.thread, event.op_index) not in returned:
                writer.record_indeterminate(
                    event.thread, event.op_index, "timeout", 0.0
                )
        writer.finalize("completed", 0.0)
    result = watch_trace(path, get_model("counter"))
    report = render_live_result(
        LiveResult(
            verdict=result.verdict,
            trace_path=path,
            outcome="completed",
            partial=False,
            monitor=result,
        )
    )
    return result, report


class TestOpenHistory:
    def test_pending_op_may_have_taken_effect(self, tmp_path):
        # get() == 1 is only explainable if the pending inc landed.
        result, report = live_check(
            tmp_path,
            call(0, 0, "inc"),  # never returns: indeterminate
            call(1, 0, "get"),
            ret(1, 0, 1),
        )
        assert result.verdict == "PASS"
        assert (result.stats["taken"], result.stats["frontier"]) == (1, 1)
        assert (
            "indeterminate resolution: 1 linearized as effective, "
            "0 as never-applied"
        ) in report

    def test_pending_op_may_never_have_happened(self, tmp_path):
        # get() == 0 forces the opposite resolution: the inc was dropped.
        result, report = live_check(
            tmp_path,
            call(0, 0, "inc"),
            call(1, 0, "get"),
            ret(1, 0, 0),
        )
        assert result.verdict == "PASS"
        assert (result.stats["taken"], result.stats["frontier"]) == (0, 1)
        assert (
            "indeterminate resolution: 0 linearized as effective, "
            "1 as never-applied"
        ) in report

    def test_pending_op_cannot_rescue_a_violation(self):
        # Soundness: two completed gets jump 0 -> 2 with only ONE
        # (pending) inc available — no placement of it explains both.
        history = hist(
            call(0, 0, "inc"),
            call(1, 0, "get"),
            ret(1, 0, 0),
            call(1, 1, "get"),
            ret(1, 1, 2),
        )
        verdict = monitor_history(history, get_model("counter"))
        assert not verdict.ok

    def test_pending_op_must_respect_its_call_time(self):
        # The pending op's call happened AFTER the get returned, so it
        # cannot be linearized before the get: get() == 1 is a violation
        # even though "inc then get" would be fine without real time.
        history = hist(
            call(1, 0, "get"),
            ret(1, 0, 1),
            call(0, 0, "inc"),  # called strictly later, never returned
        )
        verdict = monitor_history(history, get_model("counter"))
        assert not verdict.ok

    def test_multiple_indeterminates_resolved_independently(self, tmp_path):
        # Three retired-thread incs, final get sees exactly one of them.
        result, report = live_check(
            tmp_path,
            call(0, 0, "inc"),
            call(1, 0, "inc"),
            call(2, 0, "inc"),
            call(3, 0, "get"),
            ret(3, 0, 1),
            n=4,
        )
        assert result.verdict == "PASS"
        assert (result.stats["taken"], result.stats["frontier"]) == (1, 3)
        assert (
            "indeterminate resolution: 1 linearized as effective, "
            "2 as never-applied"
        ) in report

    def test_closed_history_reports_no_resolution(self, tmp_path):
        result, report = live_check(tmp_path, call(0, 0, "inc"), ret(0, 0))
        assert result.verdict == "PASS"
        assert result.stats["frontier"] == 0
        assert "indeterminate resolution" not in report

    def test_stuck_history_still_gets_blocking_check(self):
        # The open-history path must not leak into the stuck regime:
        # a counter operation is never allowed to block, so a stuck
        # history with a pending inc fails the blocking justification.
        history = hist(
            call(0, 0, "inc"),
            call(1, 0, "get"),
            ret(1, 0, 0),
            stuck=True,
        )
        verdict = monitor_history(history, get_model("counter"))
        assert not verdict.ok
        assert verdict.failed_pending is not None
