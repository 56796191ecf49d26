"""The JSONL trace format (repro.monitor.trace)."""

from __future__ import annotations

import json
import os

import pytest

from repro.monitor import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceError,
    TraceWriter,
    default_trace_path,
    load_trace,
)

from .conftest import call, hist, raised, ret


def sample_histories():
    full = hist(
        call(0, 0, "Enqueue", (1, "x")),  # tuple argument: repr round-trip
        call(1, 0, "TryDequeue"),
        ret(0, 0),
        ret(1, 0, (1, "x")),
    )
    stuck = hist(
        call(0, 0, "GetItem", "k"),
        raised(0, 0, "KeyNotFound"),
        call(1, 0, "TryAdd", "k", 2),
        n=2,
        stuck=True,
    )
    return [full, stuck]


class TestRoundTrip:
    def test_histories_survive_write_and_load(self, tmp_path):
        path = str(tmp_path / "t.trace.jsonl")
        histories = sample_histories()
        with TraceWriter(path, n_threads=2, subject="Q(beta)") as writer:
            writer.write(histories[0])
            writer.write(histories[1], verdict="FAIL")
        trace = load_trace(path)
        assert trace.subject == "Q(beta)"
        assert trace.n_threads == 2
        assert not trace.truncated
        assert trace.histories == histories
        assert trace.verdicts == [None, "FAIL"]

    def test_header_is_first_line_with_envelope(self, tmp_path):
        path = str(tmp_path / "t.trace.jsonl")
        with TraceWriter(path, n_threads=3):
            pass
        header = json.loads(open(path).readline())
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert header["n_threads"] == 3

    def test_writer_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "t.trace.jsonl")
        with TraceWriter(path, n_threads=1) as writer:
            writer.write(hist(n=1))
        assert len(load_trace(path)) == 1


class TestCrashSafety:
    def test_truncated_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "t.trace.jsonl")
        with TraceWriter(path, n_threads=2) as writer:
            for history in sample_histories():
                writer.write(history)
        with open(path, "a") as handle:
            handle.write('{"events": [{"e": "c", "t"')  # writer died here
        trace = load_trace(path)
        assert trace.truncated
        assert len(trace) == 2

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "t.trace.jsonl")
        with TraceWriter(path, n_threads=2) as writer:
            for history in sample_histories():
                writer.write(history)
        lines = open(path).read().splitlines()
        lines[1] = '{"events": [{"bro'
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="is corrupt at byte offset"):
            load_trace(path)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(str(tmp_path / "nope.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(str(path))

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(TraceError, match="not a trace file"):
            load_trace(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": 99, "n_threads": 1})
            + "\n"
        )
        with pytest.raises(TraceError, match="version"):
            load_trace(str(path))

    def test_missing_n_threads(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION}) + "\n"
        )
        with pytest.raises(TraceError, match="n_threads"):
            load_trace(str(path))


class TestDefaultPath:
    def test_deterministic(self, tmp_path):
        test = {"columns": [[{"method": "inc", "args": "()"}]]}
        first = default_trace_path(str(tmp_path), "Q(beta)", test)
        second = default_trace_path(str(tmp_path), "Q(beta)", test)
        assert first == second
        assert first.endswith(".trace.jsonl")

    def test_subject_sanitized_and_test_hashed(self, tmp_path):
        test_a = {"columns": [[{"method": "inc", "args": "()"}]]}
        test_b = {"columns": [[{"method": "get", "args": "()"}]]}
        path_a = default_trace_path(str(tmp_path), "Q/evil name(1)", test_a)
        path_b = default_trace_path(str(tmp_path), "Q/evil name(1)", test_b)
        assert os.path.dirname(path_a) == str(tmp_path)
        assert "/" not in os.path.basename(path_a)
        assert path_a != path_b
