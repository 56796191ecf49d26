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
from repro.monitor import trace as trace_module
from repro.monitor.trace import (
    LiveTraceWriter,
    TraceError,
    iter_trace,
    scan_trace,
)
from repro.stream import TraceTailer


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


# -- block boundaries -------------------------------------------------------------
#
# The reader takes the file a block at a time.  Whatever the block size,
# it must report what one read of the whole file reports: *whole_file*
# below is that read (split the bytes on newlines, parse every complete
# line), written here so the table has an oracle that shares no code
# with the reader.  Rows are ``(name, content, start, error_offset)``
# and run with 16-byte blocks.

BLOCK = 16


def line(size: int) -> bytes:
    """One JSON object line of exactly *size* bytes, newline included."""
    return b'{"k":"' + b"x" * (size - 9) + b'"}\n'


ROWS = [
    ("newline-exactly-at-a-block-end", line(16) + line(16) + line(16), 0, None),
    ("file-smaller-than-a-block", line(10), 0, None),
    ("line-straddling-a-boundary", line(10) + line(10) + line(10), 0, None),
    ("line-longer-than-two-blocks", line(10) + line(40) + line(10), 0, None),
    ("utf8-character-split-by-a-boundary",
     '{"k":"xxxxxxxxxé"}\n'.encode() + line(12), 0, None),
    ("blank-lines-at-a-boundary", line(15) + b"\n\n" + line(12), 0, None),
    ("torn-tail-starting-at-a-boundary", line(16) + line(16) + b'{"k":', 0, None),
    ("torn-tail-longer-than-a-block", line(10) + b'{"k":"' + b"x" * 40, 0, None),
    ("corrupt-line-in-block-three",
     line(16) + line(16) + b"not json\n" + line(16), 0, 32),
    ("non-object-line-in-block-three",
     line(16) + line(16) + b"[1, 2]\n" + line(16), 0, 32),
    ("resume-from-an-end-offset-mid-file", line(10) + line(10) + line(30), 10, None),
    ("resume-at-end-of-file", line(10) + line(10), 20, None),
]


def whole_file(content: bytes, start: int):
    """``(segments, next_offset, torn)`` of *content* read in one piece;
    segments are ``(obj, start, end)`` and stop before a corrupt line."""
    *lines, tail = content[start:].split(b"\n")
    segments, offset = [], start
    for raw in lines:
        end = offset + len(raw) + 1
        if raw.strip():
            try:
                obj = json.loads(raw)
            except ValueError:
                obj = None
            if not isinstance(obj, dict):
                break
            segments.append((obj, offset, end))
        offset = end
    return segments, offset, bool(tail)


def triples(segments):
    return [(s.obj, s.start, s.end) for s in segments]


@pytest.fixture(params=ROWS, ids=[row[0] for row in ROWS])
def row(request, tmp_path, monkeypatch):
    _name, content, start, error_offset = request.param
    path = str(tmp_path / "t.jsonl")
    with open(path, "wb") as handle:
        handle.write(content)
    monkeypatch.setattr(trace_module, "READ_BLOCK_BYTES", BLOCK)
    return path, content, start, error_offset


class TestBlockBoundaries:
    def test_the_split_character_row_really_splits_one(self):
        content = dict((r[0], r[1]) for r in ROWS)[
            "utf8-character-split-by-a-boundary"
        ]
        with pytest.raises(UnicodeDecodeError):
            content[:BLOCK].decode("utf-8")

    def test_scan_trace(self, row):
        path, content, start, error_offset = row
        segments, next_offset, torn = whole_file(content, start)
        if error_offset is not None:
            with pytest.raises(TraceError, match=f"byte offset {error_offset}\\b"):
                scan_trace(path, start)
            return
        scan = scan_trace(path, start)
        assert triples(scan.segments) == segments
        assert (scan.next_offset, scan.torn) == (next_offset, torn)
        assert scan.size == max(len(content), start)

    def test_iter_trace(self, row):
        path, content, start, error_offset = row
        segments, _next_offset, _torn = whole_file(content, start)
        seen = []
        if error_offset is None:
            seen.extend(iter_trace(path, start))
        else:
            # Every line before the corrupt one is delivered, none after.
            with pytest.raises(TraceError, match=f"byte offset {error_offset}\\b"):
                seen.extend(iter_trace(path, start))
        assert triples(seen) == segments

    def test_tailer(self, row):
        path, content, start, error_offset = row
        segments, next_offset, torn = whole_file(content, start)
        tailer = TraceTailer(path, start)
        seen = []
        if error_offset is None:
            for batch in tailer.batches():
                seen.extend(batch)
                # Progress is published with each batch, not after the pass
                # (blank lines may carry it past the last segment).
                assert not batch or tailer.offset >= batch[-1].end
        else:
            with pytest.raises(TraceError, match=f"byte offset {error_offset}\\b"):
                for batch in tailer.batches():
                    seen.extend(batch)
        assert triples(seen) == segments
        assert tailer.offset == next_offset
        if error_offset is None:
            assert tailer.torn == torn
            assert TraceTailer(path, start).poll() == seen

    def test_reading_stops_with_the_consumer(self, tmp_path, monkeypatch):
        # A generator, not a list: abandoning it leaves the rest unread.
        path = str(tmp_path / "t.jsonl")
        with open(path, "wb") as handle:
            handle.write(line(16) * 3 + b"not json\n")
        monkeypatch.setattr(trace_module, "READ_BLOCK_BYTES", BLOCK)
        stream = iter_trace(path)
        assert next(stream).end == 16
        stream.close()
        tailer = TraceTailer(path)
        assert triples(next(tailer.batches())) == [({"k": "x" * 7}, 0, 16)]
        assert tailer.offset == 16 and not tailer.torn


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
