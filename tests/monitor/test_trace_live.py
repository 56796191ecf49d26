"""The v2 live trace format: strict loading, torn tails, rogue writers.

Satellite coverage for the truncation-tolerant loader: an interrupted
single writer must yield a loadable consistent prefix; two writers
interleaved into one file must raise a documented :class:`TraceError`,
never blend into a plausible-looking history.
"""

from __future__ import annotations

import pytest

from repro.core.events import Invocation, Response
from repro.monitor import (
    TRACE_VERSION_LIVE,
    LiveTraceWriter,
    TraceError,
    load_trace,
)

from .test_trace_wellformed import row_test


def write_live_trace(path, *, finalize=True):
    writer = LiveTraceWriter(str(path), 2, subject="s", model="counter")
    writer.record_call(0, 0, Invocation("inc"), 0.1)
    writer.record_call(1, 0, Invocation("get"), 0.2)
    writer.record_return(0, 0, Response.of(None), 0.3)
    writer.record_return(1, 0, Response.of(1), 0.4)
    if finalize:
        writer.finalize("completed", 0.5)
    else:
        writer.close()
    return str(path)


class TestTornFinalLine:
    def test_torn_tail_loads_consistent_prefix(self, tmp_path):
        path = write_live_trace(tmp_path / "t.jsonl")
        whole = open(path, encoding="utf-8").read()
        lines = whole.splitlines()
        # Tear the last line mid-JSON, as a crashed writer would.
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(torn)
        trace = load_trace(path)
        assert trace.truncated
        assert trace.version == TRACE_VERSION_LIVE
        # The prefix is consistent: both operations are present, the end
        # marker was the torn line so the recording reads as unfinalized.
        assert len(trace.histories[0].operations) == 2
        assert not trace.live.finalized

    def test_torn_mid_stream_line_loses_only_the_tail(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, 1)
        writer.record_call(0, 0, Invocation("inc"), 0.1)
        writer.record_return(0, 0, Response.of(None), 0.2)
        writer.record_call(0, 1, Invocation("get"), 0.3)
        writer.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n" + lines[-1][:5])
        trace = load_trace(path)
        assert trace.truncated
        history = trace.histories[0]
        # The completed op survives; the torn trailing call is dropped.
        returned = [op for op in history.operations if op.response is not None]
        assert len(returned) == 1
        assert not history.pending_operations

    def test_unfinalized_but_untorn_is_not_truncated(self, tmp_path):
        path = write_live_trace(tmp_path / "t.jsonl", finalize=False)
        trace = load_trace(path)
        assert not trace.truncated
        assert not trace.live.finalized  # no end marker: writer died


class TestRogueWriters:
    """Two writers sharing one trace must be detected, not merged.

    The cases are rows of the well-formedness table
    (``test_trace_wellformed.py``), where each is run through the offline
    loader *and* the stream engine; these are the same rows under the
    names earlier reports refer to.
    """

    test_duplicate_call_key_rejected = staticmethod(
        row_test("duplicate-call-key"))
    test_operation_key_reused_after_its_return_rejected = staticmethod(
        row_test("key-reused-then-finalized"))
    test_second_open_call_on_thread_rejected = staticmethod(
        row_test("second-open-call-on-thread"))
    test_return_without_call_rejected = staticmethod(
        row_test("return-without-call"))
    test_events_after_end_marker_rejected = staticmethod(
        row_test("call-after-finalized-recording"))
    test_interleaved_writer_streams_rejected = staticmethod(
        row_test("interleaved-writers"))


class TestWriterContract:
    def test_emit_after_finalize_raises(self, tmp_path):
        writer = LiveTraceWriter(str(tmp_path / "t.jsonl"), 1)
        writer.finalize("completed", 0.1)
        with pytest.raises(TraceError, match="finalized"):
            writer.record_call(0, 0, Invocation("inc"), 0.2)

    def test_header_survives_roundtrip(self, tmp_path):
        path = write_live_trace(tmp_path / "t.jsonl")
        trace = load_trace(path)
        assert trace.subject == "s"
        assert trace.live.model == "counter"
        assert trace.live.sessions == 2
        assert trace.n_threads >= 2

    def test_v1_traces_still_load(self, tmp_path):
        # The version bump must not orphan existing traces.
        from repro.monitor import TraceWriter
        from ..monitor.conftest import call, hist, ret

        path = str(tmp_path / "v1.jsonl")
        history = hist(
            call(0, 0, "inc"), ret(0, 0), call(1, 0, "get"), ret(1, 0, 1)
        )
        with TraceWriter(path, n_threads=2, subject="old") as writer:
            writer.write(history)
        trace = load_trace(path)
        assert trace.version == 1
        assert trace.live is None
        assert len(trace.histories) == 1


# cat-ing two traces into one file: the second header is called out.
test_second_header_mid_stream_names_two_writers = row_test(
    "second-header-after-events")
