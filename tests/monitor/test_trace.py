"""The JSONL trace format (repro.monitor.trace)."""

from __future__ import annotations

import ast
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Response
from repro.monitor import (
    TRACE_FORMAT,
    TRACE_VERSION,
    DumpTraceWriter,
    TraceError,
    default_trace_dir,
    load_trace,
)
from repro.monitor import trace as trace_module
from repro.monitor.trace import LITERAL_MEMO_LIMIT, TraceDecoder

from .conftest import call, hist, raised, ret
from .test_trace_wellformed import mutate, recordings  # noqa: F401  (a fixture)


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


TEST = {"columns": [[{"method": "inc", "args": "()"}]]}


def dump(directory, histories, **verdicts):
    """Write *histories* as files 1, 2, ... of one dump; return their paths.
    *verdicts* maps ``"n<number>"`` to that file's verdict annotation."""
    writer = DumpTraceWriter(str(directory), "Q(beta)", TEST, sessions=2)
    for number, history in enumerate(histories, start=1):
        writer.write(number, history, verdicts.get(f"n{number}"))
    return [
        os.path.join(writer.directory, f"{number}.trace.jsonl")
        for number in range(1, len(histories) + 1)
    ]


class TestRoundTrip:
    def test_histories_survive_write_and_load(self, tmp_path):
        histories = sample_histories()
        paths = dump(tmp_path, histories, n2="FAIL")
        traces = [load_trace(path) for path in paths]
        assert [trace.histories for trace in traces] == [[h] for h in histories]
        for trace in traces:
            assert (trace.subject, trace.test) == ("Q(beta)", TEST)
            assert trace.n_threads == 2
            assert not trace.truncated
        assert [trace.live.outcome for trace in traces] == ["complete", "stuck"]
        ends = [json.loads(open(path).read().splitlines()[-1]) for path in paths]
        assert [end.get("verdict") for end in ends] == [None, "FAIL"]

    def test_header_is_first_line_with_envelope(self, tmp_path):
        (path,) = dump(tmp_path, [hist(n=1)])
        header = json.loads(open(path).readline())
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert (header["mode"], header["sessions"]) == ("dump", 2)

    def test_writer_creates_directories(self, tmp_path):
        (path,) = dump(tmp_path / "deep" / "nested", [hist()])
        assert load_trace(path).histories == [hist()]


class TestCrashSafety:
    def test_truncated_final_line_tolerated(self, tmp_path):
        history = sample_histories()[0]
        (path,) = dump(tmp_path, [history])
        with open(path, "a") as handle:
            handle.write('{"e": "c", "t"')  # a writer died here
        trace = load_trace(path)
        assert trace.truncated
        assert trace.histories == [history]

    def test_mid_file_corruption_raises(self, tmp_path):
        (path,) = dump(tmp_path, sample_histories()[:1])
        lines = open(path).read().splitlines()
        lines[1] = '{"e": "c", "bro'
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
        # The header's thread count is its "sessions".
        path = tmp_path / "headerless.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION}) + "\n"
        )
        with pytest.raises(TraceError, match="sessions"):
            load_trace(str(path))


class TestDefaultPath:
    def test_deterministic(self, tmp_path):
        first = default_trace_dir(str(tmp_path), "Q(beta)", TEST)
        second = default_trace_dir(str(tmp_path), "Q(beta)", TEST)
        assert first == second
        assert os.path.basename(first).startswith("Q_beta_-")

    def test_subject_sanitized_and_test_hashed(self, tmp_path):
        test_a = {"columns": [[{"method": "inc", "args": "()"}]]}
        test_b = {"columns": [[{"method": "get", "args": "()"}]]}
        path_a = default_trace_dir(str(tmp_path), "Q/evil name(1)", test_a)
        path_b = default_trace_dir(str(tmp_path), "Q/evil name(1)", test_b)
        assert os.path.dirname(path_a) == str(tmp_path)
        assert "/" not in os.path.basename(path_a)
        assert path_a != path_b


# -- the literal memo ---------------------------------------------------------------
#
# Each distinct ``"a"`` / ``"v"`` text is parsed once.  That must be
# invisible: same values, same exact types, same errors, and never one
# mutable object handed to two events.

V2_HEADER = {"format": TRACE_FORMAT, "version": 2, "mode": "live", "sessions": 4}


def call_obj(op_index, args_text):
    return {"e": "c", "t": 0, "i": op_index, "m": "op", "a": args_text}


def return_obj(op_index, value_text):
    return {"e": "r", "t": 0, "i": op_index, "k": "ok", "v": value_text}


def decode(objs):
    """What one decoder makes of *objs*: the ``repr`` of every event (types
    show in a ``repr``; ``Response('ok', 1) == Response('ok', True)``) and
    the message of the :class:`TraceError` that ended it, if one did."""
    decoder = TraceDecoder()
    seen = []
    try:
        decoder.feed(V2_HEADER)
        for obj in objs:
            seen.append(repr(decoder.feed(obj)))
    except TraceError as exc:
        # literal_eval quotes the offending AST node, address and all.
        return seen, re.sub(r" at 0x[0-9a-f]+", "", str(exc))
    return seen, None


def decode_without_memo(objs):
    """:func:`decode` with neither the literal memo nor the intern tables."""
    with mock.patch.object(trace_module, "_literal", ast.literal_eval), \
            mock.patch.object(trace_module, "_remember", lambda *_: None):
        return decode(objs)


def returned_values(*texts):
    """The values of one stream returning each of *texts* in turn."""
    decoder = TraceDecoder()
    decoder.feed(V2_HEADER)
    values = []
    for op_index, text in enumerate(texts):
        decoder.feed(call_obj(op_index, "()"))
        _kind, (_is_call, _t, _i, response) = decoder.feed(
            return_obj(op_index, text)
        )
        values.append(response.value)
    return values


class TestLiteralMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        trace_module._LITERALS.clear()

    LOOKALIKES = [("1", 1), ("True", True), ("1.0", 1.0), ("-0.0", -0.0), ("'1'", "1")]

    def test_equal_values_of_different_types_stay_apart(self):
        # 1 == True == 1.0 and they hash alike; a memo keyed on anything
        # but the text would merge them, and the execution fingerprint
        # (which reads repr) would then merge distinct histories.
        texts = [text for text, _ in self.LOOKALIKES] * 2  # second round: hits
        wanted = [value for _, value in self.LOOKALIKES] * 2
        values = returned_values(*texts)
        assert [type(v) for v in values] == [type(w) for w in wanted]
        assert [repr(Response("ok", v)) for v in values] == [
            repr(Response("ok", w)) for w in wanted
        ]
        assert all(text in trace_module._LITERALS for text in texts)

    @pytest.mark.parametrize(
        "text, mutate_it",
        [
            ("([1, 2],)", lambda value: value[0].append(3)),
            ("{'a': 1}", lambda value: value.update(b=2)),
            ("{1, 2}", lambda value: value.add(3)),
        ],
    )
    def test_mutable_payloads_are_fresh_per_event(self, text, mutate_it):
        first, second = returned_values(text, text)
        assert first == second and first is not second
        mutate_it(first)
        assert second == ast.literal_eval(text) != first
        assert text not in trace_module._LITERALS
        # The same text as an argument tuple: a list inside stays private.
        decoder = TraceDecoder()
        decoder.feed(V2_HEADER)
        calls = []
        for op_index in range(2):
            calls.append(decoder.feed(call_obj(op_index, "([1, 2],)"))[1][3])
            decoder.feed(return_obj(op_index, "None"))
        assert calls[0].args[0] is not calls[1].args[0]

    @pytest.mark.parametrize("bad", ["(", "foo", "1 +", "__import__('os')", 5, [1], None])
    def test_a_malformed_literal_raises_every_time(self, bad):
        for _ in range(2):
            events, error = decode([call_obj(0, bad)])
            assert events == [] and error.startswith("malformed trace line")
            assert (events, error) == decode_without_memo([call_obj(0, bad)])
        assert not trace_module._LITERALS

    def test_the_memo_never_outgrows_its_bound(self):
        for n in range(10_000):
            assert trace_module._literal(repr((n, "k"))) == (n, "k")
            assert len(trace_module._LITERALS) <= LITERAL_MEMO_LIMIT
        assert trace_module._LITERALS  # emptied when full, then refilled


def event_objs(lines):
    """The call/return objects among *lines* (a torn line is not delivered)."""
    objs = []
    for text in lines[1:]:
        try:
            obj = json.loads(text)
        except ValueError:
            continue
        objs.append(obj)
    return objs


@settings(max_examples=150, deadline=None)
@given(
    pick=st.integers(min_value=0),
    kind=st.sampled_from(["drop", "duplicate", "swap", "delete-key", "tear"]),
    i=st.integers(min_value=0),
    j=st.integers(min_value=0),
)
def test_the_memo_never_changes_what_a_trace_decodes_to(recordings, pick, kind, i, j):
    lines, _terminated = mutate(recordings[pick % len(recordings)], kind, i, j)
    objs = event_objs(lines)
    assert decode(objs) == decode_without_memo(objs)


literals = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(literals, min_size=1, max_size=4))
def test_any_literal_decodes_as_literal_eval_does(values):
    texts = [repr(value) for value in values] * 2
    objs = []
    for op_index, text in enumerate(texts):
        objs += [call_obj(op_index, repr((text,))), return_obj(op_index, text)]
    assert decode(objs) == decode_without_memo(objs)
