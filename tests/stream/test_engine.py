"""StreamChecker: header handling, routing, sharding, malformed streams."""

from __future__ import annotations

import pytest

from repro.core.events import Invocation, Response
from repro.monitor import get_model
from repro.monitor.trace import LiveTraceWriter, TraceError, TraceWriter, scan_trace
from repro.core.history import History
from repro.core.events import Event
from repro.stream import PartitionUnsound, StreamChecker, stable_shard

from tests.monitor.test_trace_wellformed import row_test


def ok(value=None) -> Response:
    return Response("ok", value)


def live_trace(tmp_path, events, model="register", finalize="drained"):
    """Write a v2 trace from (kind, thread, op_index, payload) tuples."""
    path = str(tmp_path / "t.jsonl")
    writer = LiveTraceWriter(path, sessions=8, model=model)
    for kind, thread, op_index, payload in events:
        if kind == "c":
            writer.record_call(thread, op_index, payload, 0.0)
        elif kind == "r":
            writer.record_return(thread, op_index, payload, 0.0)
        elif kind == "x":
            writer.record_indeterminate(thread, op_index, payload, 0.0)
    if finalize:
        writer.finalize(finalize, 1.0)
    else:
        writer.close()
    return path


def feed_all(checker, path):
    for segment in scan_trace(path).segments:
        if not checker.feed(segment.obj):
            return False
    return True


class TestLiveStream:
    def test_pass_and_counters(self, tmp_path):
        path = live_trace(
            tmp_path,
            [
                ("c", 0, 0, Invocation("write", (1,))),
                ("r", 0, 0, ok(None)),
                ("c", 1, 0, Invocation("read", ())),
                ("r", 1, 0, ok(1)),
            ],
        )
        checker = StreamChecker(get_model("register"))
        assert feed_all(checker, path)
        assert checker.verdict == "PASS"
        assert checker.finalized and checker.outcome == "drained"
        assert checker.counters.calls == 2 and checker.counters.returns == 2
        assert checker.retired() == 2 and checker.frontier_size() == 0

    def test_fail_is_immediate_and_final(self, tmp_path):
        path = live_trace(
            tmp_path,
            [
                ("c", 0, 0, Invocation("write", (1,))),
                ("r", 0, 0, ok(None)),
                ("c", 1, 0, Invocation("read", ())),
                ("r", 1, 0, ok(42)),
            ],
        )
        checker = StreamChecker(get_model("register"))
        assert not feed_all(checker, path)
        assert checker.verdict == "FAIL"
        assert checker.counterexample_text()

    def test_indeterminate_marker_routed(self, tmp_path):
        path = live_trace(
            tmp_path,
            [
                ("c", 0, 0, Invocation("write", (5,))),
                ("x", 0, 0, "timeout"),
                ("c", 1, 0, Invocation("read", ())),
                ("r", 1, 0, ok(5)),
            ],
            finalize="sut-died",
        )
        checker = StreamChecker(get_model("register"))
        assert feed_all(checker, path)
        assert checker.verdict == "PASS"
        assert checker.counters.indeterminate == 1

    def test_stats_snapshot_shape(self, tmp_path):
        path = live_trace(
            tmp_path,
            [
                ("c", 0, 0, Invocation("write", (1,))),
                ("r", 0, 0, ok(None)),
            ],
        )
        checker = StreamChecker(get_model("register"))
        feed_all(checker, path)
        stats = checker.stats()
        for key in (
            "events",
            "verdict",
            "frontier",
            "retired",
            "max_frontier",
            "max_retirement_lag",
            "finalized",
        ):
            assert key in stats


class TestMalformedStreams:
    """Rows of the well-formedness table (``test_trace_wellformed.py``),
    where each runs through the stream engine *and* the offline loader."""

    test_missing_header = staticmethod(row_test("missing-header"))
    test_unsupported_version = staticmethod(row_test("unsupported-version"))
    test_second_header_mid_stream = staticmethod(
        row_test("second-header-immediately"))
    test_duplicate_call = staticmethod(row_test("duplicate-call-while-open"))
    test_operation_key_reused_after_its_return = staticmethod(
        row_test("key-reused-after-its-return"))
    test_call_while_thread_busy = staticmethod(
        row_test("second-open-call-on-thread"))
    test_return_without_call = staticmethod(row_test("return-without-call"))
    test_event_after_end_marker = staticmethod(
        row_test("event-after-end-marker"))


class TestV1Traces:
    def test_history_per_line_verdicts(self, tmp_path):
        path = str(tmp_path / "v1.jsonl")
        good = History(
            [
                Event.call(0, 0, Invocation("write", (1,))),
                Event.ret(0, 0, ok(None)),
                Event.call(1, 0, Invocation("read", ())),
                Event.ret(1, 0, ok(1)),
            ],
            n_threads=2,
        )
        with TraceWriter(path, n_threads=2, subject="test") as writer:
            writer.write(good)
            writer.write(good)
        checker = StreamChecker(get_model("register"))
        assert feed_all(checker, path)
        assert checker.verdict == "PASS"
        assert checker.counters.histories == 2

    def test_v1_violating_record_fails(self, tmp_path):
        path = str(tmp_path / "v1.jsonl")
        bad = History(
            [
                Event.call(0, 0, Invocation("write", (1,))),
                Event.ret(0, 0, ok(None)),
                Event.call(1, 0, Invocation("read", ())),
                Event.ret(1, 0, ok(9)),
            ],
            n_threads=2,
        )
        with TraceWriter(path, n_threads=2, subject="test") as writer:
            writer.write(bad)
        checker = StreamChecker(get_model("register"))
        assert not feed_all(checker, path)
        assert checker.verdict == "FAIL"
        assert checker.counterexample_text()


class TestPartitioning:
    def test_cells_checked_independently(self, tmp_path):
        path = live_trace(
            tmp_path,
            [
                ("c", 0, 0, Invocation("TryAdd", ("a",))),
                ("c", 1, 0, Invocation("TryAdd", ("b",))),
                ("r", 0, 0, ok(True)),
                ("r", 1, 0, ok(True)),
            ],
            model="dict",
        )
        checker = StreamChecker(get_model("dict"), partition=True)
        assert feed_all(checker, path)
        assert checker.counters.cells == 2
        assert checker.verdict == "PASS"

    def test_global_operation_raises_unsound(self, tmp_path):
        path = live_trace(
            tmp_path,
            [
                ("c", 0, 0, Invocation("Count", ())),
                ("r", 0, 0, ok(0)),
            ],
            model="dict",
        )
        checker = StreamChecker(get_model("dict"), partition=True)
        with pytest.raises(PartitionUnsound):
            feed_all(checker, path)

    def test_unpartitionable_model_rejected(self):
        with pytest.raises(ValueError, match="not partitionable"):
            StreamChecker(get_model("register"), partition=True)

    def test_sharding_requires_partitioning(self):
        with pytest.raises(ValueError):
            StreamChecker(get_model("dict"), shards=2, shard_index=0)

    def test_foreign_cells_skipped_but_validated(self, tmp_path):
        events = []
        for k in range(8):
            events.append(("c", k, 0, Invocation("TryAdd", (f"k{k}",))))
            events.append(("r", k, 0, ok(True)))
        path = live_trace(tmp_path, events, model="dict")
        checkers = [
            StreamChecker(
                get_model("dict"), partition=True, shards=2, shard_index=i
            )
            for i in range(2)
        ]
        for checker in checkers:
            assert feed_all(checker, path)
        # Every cell is owned by exactly one shard; all events are counted
        # by both (well-formedness is global), but each op is checked once.
        assert sum(c.counters.cells for c in checkers) == 8
        assert sum(c.retired() for c in checkers) == 8
        assert all(c.counters.calls == 8 for c in checkers)

    def test_exhausted_cell_keeps_its_counters(self, tmp_path):
        """One hostile key trips the per-return cap: its cell is dropped,
        what it had retired stays counted, the other cells go on, and the
        dead cell's later events are still validated."""
        hot = Invocation("TryAdd", ("hot",))
        events = [
            ("c", 0, 0, Invocation("TryAdd", ("calm",))),
            ("r", 0, 0, ok(True)),
            ("c", 0, 1, hot),
            ("r", 0, 1, ok(True)),
            ("c", 0, 2, Invocation("ContainsKey", ("hot",))),
            ("r", 0, 2, ok(True)),
        ]
        # Four overlapping operations on one key: the first return's
        # closure alone visits 2^3 = 8 configurations.
        events += [("c", thread, 3, hot) for thread in range(4)]
        events += [("r", thread, 3, ok(False)) for thread in range(4)]
        events += [
            ("c", 0, 4, Invocation("TryRemove", ("calm",))),
            ("r", 0, 4, ok("calm")),
            ("c", 1, 4, hot),  # the dead cell: routed nowhere, still decoded
        ]
        path = live_trace(tmp_path, events, model="dict", finalize=None)
        checker = StreamChecker(
            get_model("dict"), partition=True, max_configurations=5
        )
        assert feed_all(checker, path)
        assert checker.verdict == "EXHAUSTED"
        stats = checker.stats()
        assert stats["exhausted_cells"] == 1 and stats["cells"] == 2
        # calm: 2 retired; hot: 2 retired before the closure that tripped.
        assert stats["retired"] == 4
        assert stats["configurations"] == 2 + 2 + (5 + 1)
        assert stats["max_frontier"] == 4
        assert stats["max_retirement_lag"] == 1
        assert stats["frontier"] == 0  # the dead cell no longer holds any
        with pytest.raises(TraceError, match="while one is still open"):
            checker.feed({"e": "c", "t": 1, "i": 5, "m": "TryAdd", "a": "('hot',)"})

    def test_stable_shard_is_deterministic(self):
        for cell in ("a", "b", 1, (1, "x")):
            assert stable_shard(cell, 4) == stable_shard(cell, 4)
            assert 0 <= stable_shard(cell, 4) < 4
