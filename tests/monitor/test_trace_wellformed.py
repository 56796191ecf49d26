"""One well-formedness table, two entry points.

Every route to a verdict must read a file as the same history or reject
it with the same rule: each row below is written to disk once and run
through **both** :func:`load_trace` (what a violation report and the
offline reference read) and :class:`StreamChecker` over
:func:`scan_blocks`, block by block (what ``lineup watch`` and ``lineup
monitor`` use).  They must agree on accept/reject and, on accept, on
the end marker's outcome, the torn-tail flag and the number of events
read — a dump whose execution ended stuck or divergent included.  Both
readers refuse a version-1 header, whatever follows it.  A hypothesis property then mutates
real recorded traces and demands the same agreement — and the same
verdict — on whatever comes out.

Rows are ``(name, lines, terminated, expected)``: *lines* are JSON
objects (or raw strings, for lines that are not JSON); *terminated*
False leaves the final line without its newline, which is what a writer
that died mid-record leaves behind; *expected* is a regex naming the
rule violated, or an :class:`Accept`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import get_model, monitor_history
from repro.monitor.trace import (
    LiveTraceWriter,
    TraceError,
    load_trace,
    scan_blocks,
)
from repro.stream import StreamChecker


@dataclass(frozen=True)
class Accept:
    """What both readers must report for a trace they accept."""

    events: int = 0  #: call + return events read
    outcome: str | None = None
    torn: bool = False


V1 = {"format": "lineup-trace", "version": 1, "n_threads": 2}
V2 = {"format": "lineup-trace", "version": 2, "mode": "live", "sessions": 2}
DUMP = {**V2, "mode": "dump"}
END = {"e": "end", "outcome": "drained", "ts": 0.9}
RECORD = {
    "events": [
        {"e": "c", "t": 0, "i": 0, "m": "inc", "a": "()"},
        {"e": "r", "t": 0, "i": 0, "k": "ok", "v": "None"},
    ]
}


def c(thread, op_index, **extra):
    return {"e": "c", "t": thread, "i": op_index, "m": "inc", "a": "()",
            "ts": 0.1, **extra}


def r(thread, op_index, **extra):
    return {"e": "r", "t": thread, "i": op_index, "k": "ok", "v": "None",
            "ts": 0.2, **extra}


def x(thread, op_index):
    return {"e": "x", "t": thread, "i": op_index, "why": "timeout", "ts": 0.3}


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


NO_OPEN_CALL = "no open call"
V1_REFUSED = "version 1 is not supported .*dump it again"
TWO_WRITERS = "two writers"
MALFORMED = "malformed trace line"

ROWS = [
    # -- accepted shapes ----------------------------------------------------
    ("v2-finalized", [V2, c(0, 0), c(1, 0), r(0, 0), r(1, 0), END], True,
     Accept(events=4, outcome="drained")),
    ("v2-unfinalized-untorn", [V2, c(0, 0), r(0, 0)], True, Accept(events=2)),
    ("v2-header-only", [V2], True, Accept()),
    ("v2-marker-for-open-call", [V2, c(0, 0), x(0, 0), END], True,
     Accept(events=1, outcome="drained")),
    ("dump-complete", [DUMP, without(c(0, 0), "ts"), without(r(0, 0), "ts"),
                       {"e": "end", "outcome": "complete"}], True,
     Accept(events=2, outcome="complete")),
    ("dump-stuck", [DUMP, c(0, 0), r(0, 0), c(1, 0),
                    {"e": "end", "outcome": "stuck"}], True,
     Accept(events=3, outcome="stuck")),
    ("dump-divergent", [DUMP, c(0, 0), {"e": "end", "outcome": "divergent"}],
     True, Accept(events=1, outcome="divergent")),
    # -- the torn tail: only bytes after the last newline are tolerated ----
    ("v2-unterminated-fragment", [V2, c(0, 0), r(0, 0), '{"e": "c", "t"'],
     False, Accept(events=2, torn=True)),
    ("v2-unterminated-end-marker", [V2, c(0, 0), r(0, 0), END], False,
     Accept(events=2, torn=True)),
    ("v2-terminated-garbage-last-line", [V2, c(0, 0), r(0, 0), "not json"],
     True, "corrupt at byte offset"),                               # (e)
    ("v2-garbage-mid-file", [V2, '{"e": "c", "t"', c(0, 0)], True,
     "corrupt at byte offset"),
    ("v2-non-object-line", [V2, "[1, 2]"], True, "not a JSON object"),
    # -- complete but malformed lines, last line included ------------------
    ("end-marker-without-outcome", [V2, c(0, 0), r(0, 0), without(END, "outcome")],
     True, MALFORMED),                                              # (a)
    ("unknown-event-kind-last-line", [V2, {"e": "q", "t": 0, "i": 0}], True,
     MALFORMED),                                                    # (b)
    ("return-without-kind-last-line", [V2, c(0, 0), without(r(0, 0), "k")],
     True, MALFORMED),                                              # (c)
    ("non-numeric-ts", [V2, c(0, 0, ts="soon"), r(0, 0)], True, MALFORMED),  # (d)
    ("event-without-kind", [V2, without(c(0, 0), "e")], True, MALFORMED),
    ("call-with-unparsable-args", [V2, c(0, 0, a="(")], True, MALFORMED),
    # -- headers ------------------------------------------------------------
    ("missing-header", [c(0, 0)], True, "not a trace"),
    ("unsupported-version", [{"format": "lineup-trace", "version": 99}], True,
     "version 99 is not supported"),
    ("v2-missing-sessions", [without(V2, "sessions"), c(0, 0)], True,
     "sessions"),
    ("second-header-immediately", [V2, V2], True, "second trace header"),
    ("second-header-after-events", [V2, c(0, 0), r(0, 0), V2, c(0, 0), r(0, 0), END],
     True, "second trace header mid-stream"),
    # -- two writers sharing one trace --------------------------------------
    ("duplicate-call-key", [V2, c(0, 0), c(1, 0), r(0, 0), r(1, 0), c(0, 0)],
     True, TWO_WRITERS),
    ("duplicate-call-while-open", [V2, c(0, 0), c(0, 0)], True,
     "duplicate call"),
    ("key-reused-after-its-return", [V2, c(0, 0), r(0, 0), c(0, 0)], True,
     r"duplicate call.*\(0, 0\)"),
    ("key-reused-then-finalized", [V2, c(0, 0), r(0, 0), c(0, 0), r(0, 0), END],
     True, r"duplicate call.*\(0, 0\)"),                           # PR 12
    ("second-open-call-on-thread", [V2, c(0, 0), c(0, 1)], True,
     "while one is still open"),
    ("interleaved-writers", [V2, c(0, 0), c(0, 0), r(0, 0), r(0, 0)], True,
     TWO_WRITERS),
    ("return-without-call", [V2, r(0, 0)], True, NO_OPEN_CALL),
    ("return-for-another-op-index", [V2, c(0, 0), r(0, 1)], True, NO_OPEN_CALL),
    ("event-after-end-marker", [V2, END, c(0, 0)], True, "after the end marker"),
    ("call-after-finalized-recording", [V2, c(0, 0), r(0, 0), END, c(1, 0)],
     True, "after the end marker"),
    # -- indeterminate markers ----------------------------------------------
    ("marker-without-open-call", [V2, x(0, 0)], True, NO_OPEN_CALL),
    ("marker-after-return", [V2, c(0, 0), r(0, 0), x(0, 0)], True, NO_OPEN_CALL),
    ("call-on-thread-retired-by-marker", [V2, c(0, 0), x(0, 0), c(0, 1)],
     True, "while one is still open"),
    ("marker-without-why", [V2, c(0, 0), without(x(0, 0), "why")], True,
     MALFORMED),
    # -- version 1 (one history per line) is refused at its header, by
    # both readers, whatever the lines after it hold -----------------------
    ("v1-records", [V1, RECORD, RECORD], True, V1_REFUSED),
    ("v1-unterminated-tail", [V1, RECORD, '{"events": [{"e": "c", "t"'],
     False, V1_REFUSED),
    ("v1-garbage-mid-file", [V1, '{"events": [{"bro', RECORD], True,
     V1_REFUSED),
    ("v1-malformed-record-mid-file", [V1, {"events": [{"e": "c"}]}, RECORD],
     True, V1_REFUSED),
    ("v1-record-without-events", [V1, {"stuck": True}], True, V1_REFUSED),
    ("v1-missing-n-threads", [without(V1, "n_threads"), RECORD], True,
     V1_REFUSED),
    ("v1-invalid-n-threads", [{**V1, "n_threads": "two"}, RECORD], True,
     V1_REFUSED),
    ("v1-second-header", [V1, RECORD, V1], True, V1_REFUSED),
]

def write_trace(path, lines, terminated=True):
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + ("\n" if terminated else ""))
    return str(path)


def read_offline(path):
    trace = load_trace(path)
    return Accept(
        events=len(trace.histories[0].events),
        outcome=trace.live.outcome,
        torn=trace.truncated,
    )


def read_online(path, model="counter"):
    """The summary, the checker and how many lines it consumed.

    Block by block, as ``watch`` reads: the lines of a block are fed
    before the next block is read, so a bad header is refused before a
    corrupt line after it is reached.
    """
    checker = StreamChecker(get_model(model))
    consumed = 0
    torn = False
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        for batch in scan_blocks(handle, path, 0, size):
            torn = batch.torn
            for segment in batch.segments:
                consumed += 1
                if not checker.feed(segment.obj):
                    break  # online FAIL is final: watch stops reading here
            if checker.verdict == "FAIL":
                break
    counters = checker.counters
    summary = Accept(
        events=counters.calls + counters.returns,
        outcome=checker.outcome,
        torn=torn,
    )
    return summary, checker, consumed


def check_row(name, tmp_path):
    """Run one named row through both readers and compare with *expected*."""
    (lines, terminated, expected), = [
        row[1:] for row in ROWS if row[0] == name
    ]
    path = write_trace(tmp_path / f"{name}.jsonl", lines, terminated)
    if isinstance(expected, Accept):
        assert read_offline(path) == expected
    else:
        with pytest.raises(TraceError, match=expected) as offline:
            load_trace(path)
        # The loader knows the path and the line: its message says both.
        assert re.search(
            rf"{re.escape(repr(path))}.* byte offset \d+", str(offline.value)
        )
    if isinstance(expected, Accept):
        assert read_online(path)[0] == expected
    else:
        with pytest.raises(TraceError, match=expected):
            read_online(path)


def row_test(name):
    """A test running one row, for suites that list a row under their own name."""
    return lambda tmp_path: check_row(name, tmp_path)


@pytest.mark.parametrize("name", [row[0] for row in ROWS])
def test_offline_and_online_agree(name, tmp_path):
    check_row(name, tmp_path)


def test_row_names_are_unique():
    names = [row[0] for row in ROWS]
    assert len(names) == len(set(names))


# -- mutated real recordings ----------------------------------------------------


def record_lines(history, path):
    """*history* as the lines ``lineup live`` would have written for it."""
    writer = LiveTraceWriter(path, history.n_threads, model="queue")
    for ts, event in enumerate(history.events):
        if event.is_call:
            writer.record_call(event.thread, event.op_index, event.invocation, ts)
        else:
            writer.record_return(event.thread, event.op_index, event.response, ts)
    writer.finalize("drained", len(history.events))
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


@pytest.fixture(scope="module")
def recordings(scheduler, tmp_path_factory):
    """Explored ``ConcurrentQueue`` histories, passing and failing, as v2 lines."""
    from tests.monitor.test_cross_validation import random_tests
    from tests.stream.test_online_offline import explored_histories

    path = str(tmp_path_factory.mktemp("recordings") / "t.jsonl")
    histories = [
        history
        for test in random_tests("queue", seed=13, count=2)
        for history in explored_histories(scheduler, "queue", "pre", test)
        if not history.stuck
    ]
    assert len(histories) >= 20
    return [record_lines(history, path) for history in histories[::5]]


def mutate(lines, kind, i, j):
    lines = list(lines)
    i, j = i % len(lines), j % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "delete-key":
        obj = json.loads(lines[i])
        del obj[sorted(obj)[j % len(obj)]]
        lines[i] = json.dumps(obj)
    elif kind == "tear":
        # Never the header: a file with no complete line is an empty file
        # to the loader (an error) but a stream that has not started yet
        # to a follower (nothing to reject) — no decoder is involved.
        i = max(i, 1)
        lines = lines[: i + 1]
        lines[i] = lines[i][: j % len(lines[i])]
    return lines, kind != "tear"


@settings(max_examples=150, deadline=None)
@given(
    pick=st.integers(min_value=0),
    kind=st.sampled_from(["drop", "duplicate", "swap", "delete-key", "tear"]),
    i=st.integers(min_value=0),
    j=st.integers(min_value=0),
)
def test_one_mutation_never_splits_the_readers(recordings, pick, kind, i, j):
    lines, terminated = mutate(recordings[pick % len(recordings)], kind, i, j)
    model = get_model("queue")
    with tempfile.TemporaryDirectory() as directory:
        path = write_trace(f"{directory}/t.jsonl", lines, terminated)
        try:
            online, checker, consumed = read_online(path, "queue")
        except TraceError:
            with pytest.raises(TraceError):
                load_trace(path)
            return
        if checker.verdict == "FAIL":
            # watch stopped at the violating return: offline must read
            # the same violation in exactly the lines watch consumed.
            path = write_trace(path, lines[:consumed])
            online = Accept(online.events, None, False)
        assert read_offline(path) == online
        history = load_trace(path).histories[0]
        assert monitor_history(history, model, engine="wgl").ok == (
            checker.verdict == "PASS"
        )
