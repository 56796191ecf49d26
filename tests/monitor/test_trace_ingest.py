"""The v2 ingest path: one parse per line, one object per distinct text.

:func:`scan_blocks` parses a line with one call into the scanner
``json.loads`` ends in, and falls back to ``json.loads`` for everything
else; it must accept exactly the lines ``json.loads`` accepts, with the
same objects, and reject the others with the same error text at the same
byte offset.  :class:`TraceDecoder` hands out one invocation and one
response per distinct text; that must be invisible but in the count of
objects made.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.monitor import get_model
from repro.monitor import trace as trace_module
from repro.monitor.trace import (
    LITERAL_MEMO_LIMIT,
    TRACE_FORMAT,
    TraceDecoder,
    TraceError,
    load_trace,
    scan_blocks,
)
from repro.stream import watch_trace

PATH = "t.jsonl"


# -- one parse per line ------------------------------------------------------------


def json_loads_reader(data: bytes):
    """Every complete line of *data* through ``json.loads``: the reference.

    Returns the ``(obj, start, end)`` of each accepted line and the
    :class:`TraceError` text of the first rejected one, if any.
    """
    accepted, offset = [], 0
    *lines, _torn = data.split(b"\n")
    for line in lines:
        if line.strip():
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                return accepted, (
                    f"trace file {PATH!r} is corrupt at byte offset {offset}: {exc}"
                )
            if not isinstance(obj, dict):
                return accepted, (
                    f"trace file {PATH!r} at byte offset {offset} "
                    "is not a JSON object"
                )
            accepted.append((obj, offset, offset + len(line) + 1))
        offset += len(line) + 1
    return accepted, None


def scanned(data: bytes, block: int = trace_module.READ_BLOCK_BYTES):
    """What :func:`scan_blocks` makes of *data*, in the same form."""
    accepted = []
    with mock.patch.object(trace_module, "READ_BLOCK_BYTES", block):
        try:
            for batch in scan_blocks(io.BytesIO(data), PATH, 0, len(data)):
                accepted += map(tuple, batch.segments)
        except TraceError as exc:
            return accepted, str(exc)
    return accepted, None


def assert_reads_like_json_loads(data: bytes, block: int = 64 * 1024) -> None:
    # repr, not ==: NaN is not equal to itself, and 1 == True.
    assert repr(scanned(data, block)) == repr(json_loads_reader(data))


HEAD = b'{"format": "lineup-trace"}\n'

LINES = [
    ("plain object", b'{"e": "c", "t": 0}', True),
    ("two objects on one line", b'{"a": 1}{"b": 2}', False),
    ("one object split across two lines", b'{"a":\n 1}', False),
    ("trailing garbage", b'{"a": 1} x', False),
    ("trailing whitespace", b'{"a": 1} \t ', True),
    ("leading whitespace", b'  {"a": 1}', True),
    ("utf-8 bom", b'\xef\xbb\xbf{"a": 1}', False),
    ("invalid utf-8", b'{"a": "\xff"}', False),
    ("truncated utf-8", b'{"a": "\xc3"}', False),
    ("multi-byte utf-8", '{"a": "é€"}'.encode(), True),
    ("nan and infinity", b'{"a": NaN, "b": -Infinity, "c": Infinity}', True),
    ("crlf ending", b'{"a": 1}\r', True),
    ("whitespace only", b" \t\r ", True),
    ("vertical tab and form feed only", b"\x0b\x0c", True),
    ("vertical tab before an object", b'\x0b{"a": 1}', False),
    ("empty line", b"", True),
    ("top-level array", b"[1, 2]", False),
    ("top-level number", b"5", False),
    ("top-level string", b'"x"', False),
    ("unterminated object", b'{"a": 1', False),
    ("control character in a string", b'{"a": "\x01"}', False),
]


@pytest.mark.parametrize(
    "line, accepted", [row[1:] for row in LINES], ids=[row[0] for row in LINES]
)
def test_a_line_reads_as_json_loads_reads_it(line, accepted):
    data = HEAD + line + b"\n" + b'{"after": true}\n'
    assert_reads_like_json_loads(data)
    assert_reads_like_json_loads(data, block=5)  # every line across blocks
    _segments, error = scanned(data)
    assert (error is None) == accepted
    if error is not None:
        assert f"byte offset {len(HEAD)}" in error


def test_nan_comes_through_as_a_float():
    segments, error = scanned(b'{"a": NaN}\n')
    assert error is None and segments[0][0]["a"] != segments[0][0]["a"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
json_lines = st.builds(
    lambda before, value, ascii_only, after: (
        before + json.dumps(value, ensure_ascii=ascii_only) + after
    ).encode("utf-8"),
    st.sampled_from(["", "", " ", "\t", "\r", "\ufeff", "\x0b"]),
    json_values,
    st.booleans(),
    st.sampled_from(["", "", " ", "\r", " \t", "x", "}", " {}", "\x0c", "\x00"]),
)
any_lines = st.one_of(json_lines, st.binary(max_size=24)).map(
    lambda line: line.replace(b"\n", b"")
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(any_lines, max_size=5),
    torn=st.binary(max_size=8).map(lambda tail: tail.replace(b"\n", b"")),
    block=st.sampled_from([3, 16, 64 * 1024]),
)
def test_any_bytes_read_as_json_loads_reads_them(lines, torn, block):
    data = b"".join(line + b"\n" for line in lines) + torn
    assert_reads_like_json_loads(data, block)


# -- one object per distinct text ---------------------------------------------------

V2_HEADER = {"format": TRACE_FORMAT, "version": 2, "mode": "live", "sessions": 1}


def stream(decoder, pairs):
    """Feed call/return pairs on thread 0; the (invocation, response) of each."""
    out = []
    for args, value in pairs:
        op_index = decoder._last.get(0, -1) + 1
        _k, call = decoder.feed(
            {"e": "c", "t": 0, "i": op_index, "m": "op", "a": args}
        )
        _k, ret = decoder.feed(
            {"e": "r", "t": 0, "i": op_index, "k": "ok", "v": value}
        )
        out.append((call[3], ret[3]))
    return out


@pytest.fixture
def decoder():
    trace_module._LITERALS.clear()
    decoder = TraceDecoder()
    decoder.feed(V2_HEADER)
    return decoder


def test_distinct_texts_decode_right_across_a_memo_wrap(decoder):
    count = LITERAL_MEMO_LIMIT + 904
    texts = [(repr((f"k{n}",)), repr(n)) for n in range(count)]
    first = stream(decoder, texts)
    again = stream(decoder, texts[:10] + texts[-10:])
    for (args, value), (invocation, response) in zip(texts, first):
        assert invocation == Invocation("op", ast.literal_eval(args))
        assert repr(response) == repr(Response("ok", ast.literal_eval(value)))
    assert again == first[:10] + first[-10:]
    assert len(decoder._invocations) <= LITERAL_MEMO_LIMIT
    assert len(decoder._responses) <= LITERAL_MEMO_LIMIT
    # The last ones are still remembered: the same objects come back.
    assert all(a[0] is b[0] for a, b in zip(again[-10:], first[-10:]))


def test_an_unhashable_payload_is_fresh_per_event(decoder):
    (call_1, ret_1), (call_2, ret_2) = stream(
        decoder, [("([1],)", "[1, 2]"), ("([1],)", "[1, 2]")]
    )
    assert ret_1 == ret_2 and ret_1 is not ret_2
    assert ret_1.value is not ret_2.value
    assert call_1 == call_2 and call_1.args[0] is not call_2.args[0]
    assert not decoder._invocations and not decoder._responses


def test_one_and_true_stay_two_responses(decoder):
    responses = [ret for _call, ret in stream(
        decoder, [("()", "1"), ("()", "True"), ("()", "1"), ("()", "True")]
    )]
    assert [type(r.value) for r in responses] == [int, bool, int, bool]
    assert responses[0] is responses[2] and responses[1] is responses[3]
    assert responses[0] is not responses[1]


def test_a_text_that_only_equals_a_known_one_is_not_shared(decoder):
    # Raised values are not literals: 1, True and 1.0 are JSON values that
    # hash alike, so only text keys may be remembered.
    replies = []
    for op_index, value in enumerate([1, True, 1.0, "1"]):
        decoder.feed({"e": "c", "t": 0, "i": op_index, "m": "op", "a": "()"})
        replies.append(decoder.feed(
            {"e": "r", "t": 0, "i": op_index, "k": "raised", "v": value}
        )[1][3])
    assert [repr(r.value) for r in replies] == ["1", "True", "1.0", "'1'"]


def _keyed_trace(tmp_path, ops):
    script = os.path.join(
        os.path.dirname(__file__), "..", "..", "perfbench", "gen_traces.py"
    )
    if not os.path.exists(script):
        pytest.skip("perfbench/gen_traces.py not in this checkout")
    spec = importlib.util.spec_from_file_location("gen_traces", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = str(tmp_path / f"keyed-{ops}.jsonl")
    module.generate(path, "keyed", ops, 1)
    return path


def _counting(monkeypatch, cls):
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_watch_makes_no_event_and_one_object_per_text(tmp_path, monkeypatch):
    path = _keyed_trace(tmp_path, 2_000)
    with open(path, encoding="utf-8") as handle:
        objs = [json.loads(line) for line in handle]
    calls = {(o["m"], o["a"], o.get("g")) for o in objs if o.get("e") == "c"}
    returns = {(o["k"], o["v"]) for o in objs if o.get("e") == "r"}

    trace_module._LITERALS.clear()
    events = _counting(monkeypatch, Event)
    invocations = _counting(monkeypatch, Invocation)
    responses = _counting(monkeypatch, Response)
    result = watch_trace(path, get_model("dict"))
    assert result.verdict == "PASS" and result.stats["retired"] == 2_000
    assert events == []
    assert 0 < len(invocations) <= len(calls)
    assert 0 < len(responses) <= len(returns)
    monkeypatch.undo()

    # The offline loader still builds the history the lines describe.
    expected = []
    for obj in objs[1:]:
        if obj["e"] == "c":
            args = tuple(ast.literal_eval(obj["a"]))
            invocation = Invocation(obj["m"], args, obj.get("g"))
            expected.append(Event.call(obj["t"], obj["i"], invocation))
        elif obj["e"] == "r":
            value = ast.literal_eval(obj["v"]) if obj["k"] == "ok" else obj["v"]
            response = Response(obj["k"], value)
            expected.append(Event.ret(obj["t"], obj["i"], response))
    history = load_trace(path).histories[0]
    assert history == History(expected, n_threads=objs[0]["sessions"])
    assert list(map(repr, history.events)) == list(map(repr, expected))
