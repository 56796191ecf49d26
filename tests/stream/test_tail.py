"""Tailing edge cases: the ways a live trace file can betray a follower.

Rotation, truncation, torn lines mid-record, a writer crashing
mid-stream, and the not-yet-created file — each must surface as an
explicit signal (exception or ``torn`` flag), never as silently wrong
segments.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.monitor.trace import TraceError
from repro.stream import TraceRotated, TraceTailer, TraceTruncated


def append(path, *objs, torn: str | None = None) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj) + "\n")
        if torn is not None:
            handle.write(torn)


def swap_after_next_stat(
    monkeypatch, path, *objs, skip: int = 0, calls=("stat", "fstat")
) -> None:
    """Rotate *path* (rename, recreate holding *objs*) the moment the next
    of the named ``os`` *calls* — after *skip* of them — has answered."""
    remaining = [skip]

    def hooked(real):
        def stat(*args, **kwargs):
            result = real(*args, **kwargs)
            remaining[0] -= 1
            if remaining[0] == -1:
                os.rename(path, path + ".1")
                append(path, *objs)
            return result

        return stat

    for name in calls:
        monkeypatch.setattr(os, name, hooked(getattr(os, name)))


class TestTailer:
    def test_polls_consume_appends_incrementally(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1})
        tailer = TraceTailer(path)
        assert [s.obj for s in tailer.poll()] == [{"a": 1}]
        assert tailer.poll() == []  # caught up
        append(path, {"b": 2}, {"c": 3})
        assert [s.obj for s in tailer.poll()] == [{"b": 2}, {"c": 3}]

    def test_not_yet_created_file_polls_empty(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tailer = TraceTailer(path)
        assert tailer.poll() == []
        assert not tailer.exists
        append(path, {"a": 1})
        assert [s.obj for s in tailer.poll()] == [{"a": 1}]
        assert tailer.exists

    def test_torn_line_reread_once_completed(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1}, torn='{"b": ')
        tailer = TraceTailer(path)
        assert [s.obj for s in tailer.poll()] == [{"a": 1}]
        assert tailer.torn
        assert tailer.backlog() > 0  # the torn bytes are unconsumed
        # The writer completes the record between polls.
        append(path, torn="2}\n")
        assert [s.obj for s in tailer.poll()] == [{"b": 2}]
        assert not tailer.torn
        assert tailer.backlog() == 0

    def test_writer_crash_mid_stream_leaves_stable_torn_tail(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1}, torn='{"dead": ')
        tailer = TraceTailer(path)
        tailer.poll()
        # Nobody will ever complete the line: every poll reports the same
        # torn tail, none consumes it, none invents a record from it.
        for _ in range(3):
            assert tailer.poll() == []
            assert tailer.torn

    def test_truncation_raises(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1}, {"b": 2})
        tailer = TraceTailer(path)
        tailer.poll()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fresh": 1}) + "\n")
        with pytest.raises(TraceTruncated):
            tailer.poll()
        # Recovery: reset and read the new content from offset 0.
        tailer.reset()
        assert [s.obj for s in tailer.poll()] == [{"fresh": 1}]

    def test_rotation_by_rename_and_recreate_raises(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1})
        tailer = TraceTailer(path)
        tailer.poll()
        os.rename(path, path + ".1")
        # Recreate bigger than the old file, so size alone cannot tell.
        append(path, {"fresh": 1}, {"fresh": 2})
        with pytest.raises(TraceRotated):
            tailer.poll()
        tailer.reset()
        assert [s.obj for s in tailer.poll()] == [{"fresh": 1}, {"fresh": 2}]

    def test_rotation_between_the_stat_and_the_read(self, tmp_path, monkeypatch):
        # The file is swapped right after the tailer learns its identity
        # and size.  Pairing that answer with the *new* file's bytes
        # would resume mid-line ("corrupt at byte offset") or, worse,
        # silently skip records.
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1})
        tailer = TraceTailer(path)
        tailer.poll()
        append(path, {"b": 2})
        swap_after_next_stat(monkeypatch, path, {"fresh": "x" * 40}, {"fresh": 2})
        # Identity, size and bytes all come from one handle: the rest of
        # the file we were following, nothing of its replacement ...
        assert [s.obj for s in tailer.poll()] == [{"b": 2}]
        # ... which the next pass reports for what it is.
        with pytest.raises(TraceRotated):
            tailer.poll()
        tailer.reset()
        assert [s.obj for s in tailer.poll()] == [{"fresh": "x" * 40}, {"fresh": 2}]

    def test_file_vanishing_mid_follow_raises_rotated(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1})
        tailer = TraceTailer(path)
        tailer.poll()
        os.unlink(path)
        with pytest.raises(TraceRotated):
            tailer.poll()

    def test_mid_file_corruption_raises_trace_error(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        append(path, {"b": 2})
        tailer = TraceTailer(path)
        with pytest.raises(TraceError):
            tailer.poll()

    def test_start_offset_resumes_mid_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append(path, {"a": 1}, {"b": 2})
        first = TraceTailer(path)
        segments = first.poll()
        resumed = TraceTailer(path, start_offset=segments[0].end)
        assert [s.obj for s in resumed.poll()] == [{"b": 2}]
