"""The incremental trace loader and the writer's flush policy.

Satellites of the streaming-monitor work: :func:`scan_trace` /
:func:`iter_trace` must consume exactly the complete lines, report the
resume offset, and treat a torn final line as re-readable — while
:class:`LiveTraceWriter`'s flush policy defines when a same-host
follower gets to see an appended event at all.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.events import Invocation, Response
from repro.monitor.trace import (
    LiveTraceWriter,
    TraceError,
    iter_trace,
    scan_trace,
)


def write_lines(path, *objs, torn: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj) + "\n")
        if torn is not None:
            handle.write(torn)


class TestScanTrace:
    def test_segments_carry_objects_and_byte_ranges(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_lines(path, {"a": 1}, {"b": 2})
        scan = scan_trace(path)
        assert [s.obj for s in scan.segments] == [{"a": 1}, {"b": 2}]
        assert scan.segments[0].start == 0
        assert scan.segments[1].start == scan.segments[0].end
        assert scan.next_offset == scan.segments[1].end == scan.size
        assert not scan.torn

    def test_torn_final_line_is_not_consumed(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_lines(path, {"a": 1}, torn='{"b": ')
        scan = scan_trace(path)
        assert [s.obj for s in scan.segments] == [{"a": 1}]
        assert scan.torn
        # The resume offset points at the torn line's first byte...
        assert scan.next_offset == scan.segments[0].end
        # ...so completing the line later makes it readable from there.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('2}\n')
        rescan = scan_trace(path, scan.next_offset)
        assert [s.obj for s in rescan.segments] == [{"b": 2}]
        assert not rescan.torn

    def test_resume_from_offset_skips_consumed_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_lines(path, {"a": 1}, {"b": 2}, {"c": 3})
        first = scan_trace(path)
        middle = first.segments[1]
        scan = scan_trace(path, middle.start)
        assert [s.obj for s in scan.segments] == [{"b": 2}, {"c": 3}]

    def test_newline_terminated_garbage_raises_with_offset(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_lines(path, {"a": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(TraceError, match="byte"):
            scan_trace(path)

    def test_non_object_line_raises(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
        with pytest.raises(TraceError):
            scan_trace(path)

    def test_empty_file_yields_nothing(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        open(path, "w").close()
        scan = scan_trace(path)
        assert scan.segments == [] and not scan.torn and scan.next_offset == 0

    def test_iter_trace_yields_segments(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_lines(path, {"a": 1}, {"b": 2})
        assert [s.obj for s in iter_trace(path)] == [{"a": 1}, {"b": 2}]


class TestFlushPolicy:
    def test_default_flushes_every_line(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, sessions=1)
        writer.record_call(0, 0, Invocation("get", ()), 0.0)
        # Visible to a concurrent reader without any flush call.
        assert len(scan_trace(path).segments) == 2  # header + call
        writer.close()

    def test_buffered_lines_invisible_until_flush(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, sessions=1, flush_every_n=100)
        writer.record_call(0, 0, Invocation("get", ()), 0.0)
        writer.record_return(0, 0, Response("ok", 1), 0.1)
        # The header is always flushed; the two events are still buffered.
        assert len(scan_trace(path).segments) == 1
        writer.flush()
        assert len(scan_trace(path).segments) == 3
        writer.close()

    def test_every_nth_line_flushes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, sessions=1, flush_every_n=2)
        writer.record_call(0, 0, Invocation("get", ()), 0.0)
        assert len(scan_trace(path).segments) == 1  # buffered
        writer.record_return(0, 0, Response("ok", 1), 0.1)
        assert len(scan_trace(path).segments) == 3  # n-th line flushed
        writer.close()

    def test_finalize_always_flushes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, sessions=1, flush_every_n=1000)
        writer.record_call(0, 0, Invocation("get", ()), 0.0)
        writer.record_return(0, 0, Response("ok", 1), 0.1)
        writer.finalize("drained", 0.2)
        segments = scan_trace(path).segments
        assert segments[-1].obj["e"] == "end"
        assert len(segments) == 4

    def test_flush_interval_forces_flush_on_next_append(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(
            path, sessions=1, flush_every_n=1000, flush_interval=0.01
        )
        writer.record_call(0, 0, Invocation("get", ()), 0.0)
        import time

        time.sleep(0.02)
        # The next append sees the stale buffer and flushes everything.
        writer.record_return(0, 0, Response("ok", 1), 0.1)
        assert len(scan_trace(path).segments) == 3
        writer.close()

    @pytest.mark.parametrize(
        "kwargs", [{"flush_every_n": 0}, {"flush_interval": -1.0}]
    )
    def test_invalid_flush_policy_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            LiveTraceWriter(str(tmp_path / "t.jsonl"), sessions=1, **kwargs)

    def test_live_recorder_passes_flush_policy_through(self, tmp_path):
        from repro.live.recorder import LiveRecorder

        path = str(tmp_path / "t.jsonl")
        recorder = LiveRecorder(path, sessions=1, flush_every_n=50)
        thread = recorder.allocate_thread()
        recorder.begin(thread, Invocation("get", ()))
        assert len(scan_trace(path).segments) == 1  # call still buffered
        recorder.finalize("drained")
        assert len(scan_trace(path).segments) == 3


def test_live_event_lines_are_byte_stable(tmp_path):
    # The recorder's call/return lines are the v1 event objects plus "ts";
    # traces already on disk were written with exactly these bytes.
    path = str(tmp_path / "t.jsonl")
    writer = LiveTraceWriter(path, sessions=2)
    writer.record_call(1, 2, Invocation("put", ("k", 1)), 0.5)
    writer.record_return(1, 2, Response("ok", (True, "v")), 0.75)
    writer.record_return(0, 3, Response("raised", "KeyError"), 1.0)
    writer.close()
    with open(path, "rb") as handle:
        assert handle.read().splitlines()[1:] == [
            b'{"e":"c","t":1,"i":2,"m":"put","a":"(\'k\', 1)","ts":0.5}',
            b'{"e":"r","t":1,"i":2,"k":"ok","v":"(True, \'v\')","ts":0.75}',
            b'{"e":"r","t":0,"i":3,"k":"raised","v":"KeyError","ts":1.0}',
        ]
