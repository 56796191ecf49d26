"""Versioned JSONL trace files: concurrent histories at rest.

The monitoring engine's input does not have to come from our scheduler —
a production log, a crash-quarantine artifact, or another tool can all
supply histories.  This module defines the interchange format: a file is
one recording of one history, an event per line, in version 2, the only
version.  Line 1 is the envelope header (the conventions of
:mod:`repro.core.observations`): ``{"format": "lineup-trace", "version":
2, "mode": ..., "sessions": N, ...}``, where ``mode`` is ``"live"`` for
the :mod:`repro.live` recorder (which adds ``subject`` and ``model``)
and ``"dump"`` for ``--dump-traces`` (which adds ``subject`` and
``test``, the serialized finite test).  Every further line is an event,
appended in the order it happened, so an interrupted recording is a
loadable prefix:

* a call ``{"e": "c", "t": thread, "i": op_index, "m": method, "a":
  "<repr of args tuple>"}`` (``"g"``: its target, if any) or a return
  ``{"e": "r", "t": ..., "i": ..., "k": "ok"|"raised", "v": value}``.
  Arguments and ``ok`` values round-trip through ``repr`` and
  ``ast.literal_eval``; ``raised`` values are exception-name strings.
  A live recording adds ``"ts"``, monotonic seconds since it started.
  A thread has at most one call open at a time and its ``"i"`` strictly
  increases from each call to its next, so an operation key ``(t, i)``
  is never used twice; the decoder enforces that with one remembered
  index per thread, so its memory is bounded by the thread count;
* ``{"e": "x", "t": ..., "i": ..., "why": ...}`` marks an operation
  *indeterminate* (the client lost it after the request may have been
  sent).  It is an annotation: the operation never gets a return, so it
  loads as **pending**, checked under the open-history semantics of
  :mod:`repro.monitor.wgl` (it may take effect after its call, or not);
* ``{"e": "end", "outcome": ...}`` finalizes the recording: ``"drained"``,
  ``"sut-died"``, ... for a live one (no marker: the recorder died, and
  ``LiveTraceMeta.outcome`` is None); for a dump, how the execution
  ended — ``"complete"``, ``"stuck"`` or ``"divergent"`` — plus
  ``"verdict": "FAIL"`` when the history failed its check.

The history is the events in file order, every call without a return
pending.  The live recorder appends a call *before* sending the request
and its return *after* the response, so every recorded interval contains
the real one and every precedence edge is a real-time edge: a FAIL on a
live trace is sound, and its pending operations are open.  A dump that
ended stuck or divergent loads as a *stuck* history: its pending
operations were observed to block, which a verdict must justify
(Definitions 2/3).

**The torn-tail rule** (the one definition of "truncated", for every
reader).  A live writer emits ``line + "\\n"`` in one write and a dump
is one write of the whole file, so a crash — or a follower catching the
writer mid-append — can leave exactly one thing behind: bytes after the
last newline, the *torn tail*.  A reader does not consume them, keeps
every complete line before them, and says so (``TraceFile.truncated``,
``TraceScan.torn``, ``TraceTailer.torn``).  A newline-terminated line is
complete, so if it is not a JSON object, lacks a key, carries an unknown
event kind or breaks a rule above it raises :class:`TraceError` wherever
it sits — the last line included.  So do the shapes two writers sharing
one path produce (a second header, a duplicate or overlapping call, a
return or marker with no open call, anything after the end marker), and
a header of another version: the history-per-line version-1 files of
older ``--dump-traces`` runs are not read — dump again.

**One reader, one decoder.**  :func:`scan_blocks` is the only code that
reads trace bytes — a bounded block at a time — and
:class:`TraceDecoder` the only code that knows the lines above.  The
offline loader (:func:`load_trace`), the header peek
(:func:`read_trace_header`) and the online engine
(:class:`repro.stream.engine.StreamChecker` behind
:class:`repro.stream.tail.TraceTailer`) all feed the decoder what the
reader delivers, so a file is the same history — or the same error — on
every route to a verdict.

:func:`default_trace_dir` derives a deterministic directory from the
subject and test (a content hash), so the sandboxed worker dumping
traces and the supervisor writing the crash report that references them
agree on it without talking.  :class:`DumpTraceWriter` writes the
history of phase-2 execution *n* there as ``<n>.trace.jsonl``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from json.scanner import make_scanner
from typing import IO, Any, Iterable, NamedTuple

from repro.core.events import Event, Invocation, Response
from repro.core.history import History

__all__ = [
    "LITERAL_MEMO_LIMIT",
    "READ_BLOCK_BYTES",
    "STUCK_OUTCOMES",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "DumpTraceWriter",
    "LiveTraceMeta",
    "LiveTraceWriter",
    "TraceDecoder",
    "TraceError",
    "TraceFile",
    "TraceScan",
    "TraceSegment",
    "default_trace_dir",
    "iter_trace",
    "load_trace",
    "read_trace_header",
    "scan_blocks",
    "scan_trace",
]

TRACE_FORMAT = "lineup-trace"
TRACE_VERSION = 2
#: The end-marker outcomes of a dumped execution that blocked: the file
#: loads as a stuck history.
STUCK_OUTCOMES = ("stuck", "divergent")


class TraceError(Exception):
    """A trace file could not be read, parsed, or validated."""


def _call_obj(thread: int, op_index: int, invocation: Invocation) -> dict:
    obj: dict[str, Any] = {
        "e": "c",
        "t": thread,
        "i": op_index,
        "m": invocation.method,
        "a": repr(tuple(invocation.args)),
    }
    if invocation.target is not None:
        obj["g"] = invocation.target
    return obj


def _return_obj(thread: int, op_index: int, response: Response) -> dict:
    value = (
        str(response.value) if response.kind == "raised" else repr(response.value)
    )
    return {"e": "r", "t": thread, "i": op_index, "k": response.kind, "v": value}


def _header_obj(mode: str, sessions: int, **fields: Any) -> dict:
    """Line 1 of a trace; *fields* that are None are left out."""
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "mode": mode,
        "sessions": sessions,
    }
    header.update((k, v) for k, v in fields.items() if v is not None)
    return header


def _outcome(history: History) -> str:
    """How the execution behind *history* ended, as a dump's end marker says."""
    if history.divergent:
        return "divergent"
    return "stuck" if history.stuck else "complete"


def _line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


#: How many distinct ``"a"`` / ``"v"`` texts :func:`_literal` remembers.
LITERAL_MEMO_LIMIT = 4096
_LITERALS: dict[str, Any] = {}
_UNSEEN = object()


def _literal(text: str) -> Any:
    """``ast.literal_eval`` of *text*, each distinct *text* parsed once.

    A trace repeats a few argument tuples and return values over and over
    and ``literal_eval`` compiles its input every time.  The text alone
    is a safe key: ``"1"``, ``"True"`` and ``"1.0"`` are three texts and
    keep their three types.  Only hashable — hence deeply immutable —
    values are remembered, so a list, dict or set payload is a fresh
    object for every event; a text that does not parse raises every time.
    The memo is emptied when it reaches :data:`LITERAL_MEMO_LIMIT`, which
    bounds it however many distinct literals a trace carries.
    """
    try:
        value = _LITERALS.get(text, _UNSEEN)
    except TypeError:  # unhashable, so no string: literal_eval will say so
        value = _UNSEEN
    if value is _UNSEEN:
        value = ast.literal_eval(text)
        try:
            hash(value)
        except TypeError:
            return value
        if len(_LITERALS) >= LITERAL_MEMO_LIMIT:
            _LITERALS.clear()
        _LITERALS[text] = value
    return value


def _invocation(method: Any, args: Any, target: Any) -> Invocation:
    """The invocation a call line's ``"m"`` / ``"a"`` / ``"g"`` describe."""
    return Invocation(method, tuple(_literal(args)), target)


def _response(kind: Any, value: Any) -> Response:
    """The response a return line's ``"k"`` / ``"v"`` describe."""
    if kind == "raised":
        return Response("raised", value)
    return Response("ok", _literal(value))


def _interned(table: dict, text: tuple, make) -> Any:
    """``make(*text)``, one object per distinct *text* in *table*.

    A trace repeats a few invocations and responses over and over, and
    every event that repeats one gets the same immutable object instead
    of a new one.  The rules are :func:`_literal`'s: only texts — strings
    or ``None``, which equal nothing but themselves, where ``1``,
    ``True`` and ``1.0`` would collide — are keys, only hashable values
    are kept, a text that does not decode raises every time, and the
    table is emptied when it reaches :data:`LITERAL_MEMO_LIMIT`.
    """
    try:
        value = table.get(text)
    except TypeError:  # a field that is no JSON scalar: built, never kept
        return make(*text)
    if value is None:
        value = make(*text)
        _remember(table, text, value)
    return value


#: What an intern key may be made of: values equal to nothing but their like.
_TEXT_TYPES = frozenset({str, type(None)})


def _remember(table: dict, text: tuple, value: Any) -> None:
    if not _TEXT_TYPES.issuperset(map(type, text)):
        return
    try:
        hash(value)
    except TypeError:
        return
    if len(table) >= LITERAL_MEMO_LIMIT:
        table.clear()
    table[text] = value


@dataclass
class LiveTraceMeta:
    """The recording's metadata: what the writer saw.

    Everything here is *annotation* — the checkable history is carried by
    the call/return events and the end marker's outcome alone.
    ``indeterminate`` lists the ``(thread, op_index, why)`` markers;
    ``intervals`` maps operation keys to ``(ts_call, ts_return_or_None)``
    monotonic-clock pairs.
    """

    sessions: int
    model: str | None = None
    #: "drained", "sut-died", ... for a live recording, "complete",
    #: "stuck" or "divergent" for a dump — None when no end marker was
    #: found (the recorder itself died mid-recording).
    outcome: str | None = None
    indeterminate: list[tuple[int, int, str]] = field(default_factory=list)
    intervals: dict[tuple[int, int], tuple[float, float | None]] = field(
        default_factory=dict
    )


@dataclass
class TraceFile:
    """A loaded trace: the header metadata plus the recording's history."""

    n_threads: int
    live: LiveTraceMeta  #: the header's and the annotation lines' metadata
    subject: str | None = None
    test: dict | None = None  #: serialized FiniteTest (checkpoint format)
    #: the one history the recording describes, as a one-item list.
    histories: list[History] = field(default_factory=list)
    #: True when the final line was truncated (interrupted writer).
    truncated: bool = False


class DumpTraceWriter:
    """Write each judged phase-2 history of one (subject, test) as a file.

    The directory is :func:`default_trace_dir`'s; the history of phase-2
    execution *n* (1-based) goes to ``<n>.trace.jsonl`` as a finished
    recording (header, calls and returns, end marker), in one ``open``
    and one ``write``.  A fresh writer first removes the directory's old
    trace files — a dump describes one run; with ``fresh=False`` (a
    resumed check) they stay and the numbering continues.
    """

    def __init__(
        self,
        directory: str,
        subject: str,
        test: dict,
        sessions: int,
        *,
        fresh: bool = True,
    ) -> None:
        self.directory = default_trace_dir(directory, subject, test)
        os.makedirs(self.directory, exist_ok=True)
        if fresh:
            for name in os.listdir(self.directory):
                if name.endswith(".trace.jsonl"):
                    os.remove(os.path.join(self.directory, name))
        self._header = _line(
            _header_obj("dump", sessions, subject=subject, test=test)
        )

    def write(
        self, number: int, history: History, verdict: str | None = None
    ) -> None:
        lines = [self._header]
        for event in history.events:
            if event.is_call:
                obj = _call_obj(event.thread, event.op_index, event.invocation)
            else:
                obj = _return_obj(event.thread, event.op_index, event.response)
            lines.append(_line(obj))
        end: dict[str, Any] = {"e": "end", "outcome": _outcome(history)}
        if verdict is not None:
            end["verdict"] = verdict
        lines.append(_line(end))
        path = os.path.join(self.directory, f"{number}.trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))


class LiveTraceWriter:
    """Append live events to a JSONL trace with explicit flushing.

    Thread-safe: concurrent sessions append through one lock, so file
    order is a real interleaving of the append calls.

    **Flush policy / visibility guarantee** (documented in docs/LIVE.md):
    every ``flush_every_n``-th appended line — and, when ``flush_interval``
    is positive, any pending line older than that many seconds at the next
    append — is flushed to the OS, at which point a same-host follower
    (``lineup watch --follow``, or anything built on :func:`iter_trace`)
    observes it.  The defaults (``flush_every_n=1``) keep the original
    contract: each line is visible before the writer takes another step,
    and a crash loses at most the line being written.  Raising
    ``flush_every_n`` trades promptness (a follower may lag up to n
    events behind, and a crash may lose up to n buffered lines) for fewer
    syscalls on hot recording paths.  :meth:`finalize` always flushes and
    additionally fsyncs so the end marker survives a machine crash.
    """

    def __init__(
        self,
        path: str,
        sessions: int,
        *,
        subject: str | None = None,
        model: str | None = None,
        flush_every_n: int = 1,
        flush_interval: float = 0.0,
    ) -> None:
        if flush_every_n < 1:
            raise ValueError("flush_every_n must be >= 1")
        if flush_interval < 0:
            raise ValueError("flush_interval must be >= 0")
        self.path = path
        self.events = 0
        self.flush_every_n = flush_every_n
        self.flush_interval = flush_interval
        self._pending = 0  #: lines written but not yet flushed
        self._last_flush = time.monotonic()
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle: IO[str] | None = open(path, "w", encoding="utf-8")
        self._emit(
            _header_obj("live", sessions, subject=subject, model=model),
            force_flush=True,
        )
        self.events = 0  # the header is not an event

    def _emit(self, obj: dict, force_flush: bool = False) -> None:
        with self._lock:
            if self._handle is None:
                raise TraceError(
                    f"live trace {self.path!r} is already finalized"
                )
            self._handle.write(_line(obj))
            self._pending += 1
            self.events += 1
            now = time.monotonic()
            if (
                force_flush
                or self._pending >= self.flush_every_n
                or (
                    self.flush_interval > 0
                    and now - self._last_flush >= self.flush_interval
                )
            ):
                self._handle.flush()
                self._pending = 0
                self._last_flush = now

    def flush(self) -> None:
        """Flush any buffered lines to the OS immediately."""
        with self._lock:
            if self._handle is not None and self._pending:
                self._handle.flush()
                self._pending = 0
                self._last_flush = time.monotonic()

    def record_call(
        self, thread: int, op_index: int, invocation: Invocation, ts: float
    ) -> None:
        self._emit({**_call_obj(thread, op_index, invocation), "ts": ts})

    def record_return(
        self, thread: int, op_index: int, response: Response, ts: float
    ) -> None:
        self._emit({**_return_obj(thread, op_index, response), "ts": ts})

    def record_indeterminate(
        self, thread: int, op_index: int, why: str, ts: float
    ) -> None:
        """Mark an operation as possibly-effective-but-unobserved.

        Annotation only: the operation stays pending (no return event is
        ever written for it) and is checked under the open-history
        semantics.
        """
        self._emit({"e": "x", "t": thread, "i": op_index, "why": why, "ts": ts})

    def finalize(self, outcome: str, ts: float) -> None:
        """Write the end marker, fsync, and close the file."""
        self._emit({"e": "end", "outcome": outcome, "ts": ts})
        self.close(sync=True)

    def close(self, sync: bool = False) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if sync:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "LiveTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TraceSegment(NamedTuple):
    """One complete JSONL line of a trace, with its byte extent.

    ``start``/``end`` are byte offsets into the file: the line occupies
    ``[start, end)`` including its terminating newline, so ``end`` is the
    exact offset to resume from after consuming this segment.  A plain
    tuple: one is made per line.
    """

    obj: dict
    start: int
    end: int


@dataclass
class TraceScan:
    """The complete lines found by one pass, or one block, over a trace.

    ``next_offset`` is where the next pass should resume: just past the
    last complete line.  When ``torn`` is True the pass ended in an
    incomplete (not newline-terminated) line starting exactly at
    ``next_offset`` — the writer is mid-append or died there; a follower
    re-reads from that offset once the file grows.  ``size`` is how far
    into the file the pass has read (``size - next_offset`` is the torn
    tail's length, 0 when not torn).
    """

    segments: list[TraceSegment] = field(default_factory=list)
    next_offset: int = 0
    torn: bool = False
    size: int = 0


#: Bytes asked of the file per read.  With the concurrency window it is
#: what bounds a reader's memory: a backlog of any length is decoded one
#: block at a time, never as a whole.
READ_BLOCK_BYTES = 64 * 1024

#: What ``json.loads`` ends in, without the two Python frames in front:
#: one call parses the value that starts at a given index.
_scan_value = make_scanner(json.JSONDecoder())
#: JSON's whitespace: all ``json.loads`` lets trail a value.
_JSON_SPACE = " \t\n\r"


def scan_blocks(handle: IO[bytes], path: str, start: int, end: int):
    """Yield one :class:`TraceScan` per block read from ``[start, end)``.

    The byte-accurate line reader under every consumer, and the only
    code that reads trace bytes.  *handle* is the trace opened ``"rb"``
    and *end* the size it had when the pass began: a pass is that fixed
    range however fast the writer appends meanwhile.  Each read asks for
    at most :data:`READ_BLOCK_BYTES` and the batch yielded for it holds
    the lines whose newline the block contained, in order, with
    ``next_offset`` / ``size`` as of that block.  Bytes after a block's
    last newline are carried into the next one — a line longer than a
    block is extended, never split — and only what is left when the pass
    ends is the torn tail of the module docstring: ``torn`` is False on
    every batch but possibly the last.

    A newline-terminated line that is not a JSON object is corruption
    anywhere in the file: the lines before it are yielded, then
    :class:`TraceError` names its byte offset.  Blank lines are skipped
    but still advance the offset.

    A line is parsed once, by the scanner ``json.loads`` itself ends in,
    and taken from it only when the value starts at the line's first
    character and is followed by nothing but JSON whitespace — exactly
    when ``json.loads`` returns that same value.  Any other line (blank,
    indented, not UTF-8, not JSON, not an object) goes to ``json.loads``,
    which accepts it or raises its own error text.
    """
    segment = TraceSegment._make
    carry = b""  # the incomplete line that starts at *offset*
    offset = position = start
    corrupt = None
    while position < end:
        try:
            handle.seek(position)
            block = handle.read(min(READ_BLOCK_BYTES, end - position))
        except OSError as exc:
            raise TraceError(f"cannot read trace file {path!r}: {exc}") from exc
        if not block:
            break  # the file shrank under us; the next pass will notice
        position += len(block)
        lines = (carry + block).split(b"\n")
        carry = lines.pop()
        segments = []
        for line in lines:
            line_end = offset + len(line) + 1
            try:
                text = line.decode()
                obj, stop = _scan_value(text, 0)
                if stop != len(text) and text[stop:].strip(_JSON_SPACE):
                    obj = None  # trailing data: json.loads says what
            except (StopIteration, ValueError):  # no value at 0, or bad bytes
                obj = None
            if obj.__class__ is dict:
                segments.append(segment((obj, offset, line_end)))
            elif line.strip():
                try:
                    obj = json.loads(line.decode("utf-8"))
                except ValueError as exc:  # not JSON, or not UTF-8
                    corrupt = f"is corrupt at byte offset {offset}: {exc}"
                    break
                if not isinstance(obj, dict):
                    corrupt = f"at byte offset {offset} is not a JSON object"
                    break
                segments.append(segment((obj, offset, line_end)))
            offset = line_end
        torn = position >= end and bool(carry)
        yield TraceScan(segments, offset, torn, position)
        if corrupt is not None:
            raise TraceError(f"trace file {path!r} {corrupt}")


def _scan_path(path: str, start_offset: int = 0):
    """One :func:`scan_blocks` pass over what *path* holds right now."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path!r}: {exc}") from exc
    with handle:
        size = os.fstat(handle.fileno()).st_size
        yield from scan_blocks(handle, path, start_offset, size)


def scan_trace(path: str, start_offset: int = 0) -> TraceScan:
    """Read every complete JSONL line of *path* from *start_offset* on.

    One :func:`scan_blocks` pass gathered into a single
    :class:`TraceScan`: the offline view of a file, and the whole
    backlog at once — a follower that must stay within a block of
    memory drains the batches instead
    (:meth:`repro.stream.tail.TraceTailer.batches`).  ``next_offset``
    says exactly where to resume, including the byte offset of a torn
    tail, so nothing is lost to a writer caught mid-append.
    """
    scan = TraceScan(next_offset=start_offset, size=start_offset)
    for batch in _scan_path(path, start_offset):
        scan.segments += batch.segments
        scan.next_offset, scan.torn, scan.size = (
            batch.next_offset, batch.torn, batch.size
        )
    return scan


def iter_trace(path: str, start_offset: int = 0):
    """Yield :class:`TraceSegment` for each complete line, incrementally.

    A generator over one :func:`scan_blocks` pass: the file is read a
    block at a time as the iteration advances, so stopping early leaves
    the rest unread.  Iteration ends at a torn (incomplete) final line
    instead of raising, and each yielded segment carries its ``end``
    offset — resume a later pass from the last segment's ``end`` (or
    from ``start_offset`` when nothing was yielded) to pick up exactly
    where this one left off.  For rotation/truncation detection and
    stateful following, use :class:`repro.stream.tail.TraceTailer`,
    which drains the same batches.
    """
    for batch in _scan_path(path, start_offset):
        yield from batch.segments


class TraceDecoder:
    """The one reader of the trace format: parsed lines in, their meaning out.

    Feed it the parsed JSONL lines of one trace in file order.  Each
    :meth:`feed` either raises :class:`TraceError` — the line is
    malformed or breaks a well-formedness rule of the module docstring —
    or returns exactly one ``(kind, item)`` pair saying what the line
    means at this point of the stream:

    * ``("header", header_dict)`` — line 1; ``version`` and ``n_threads``
      (the header's ``sessions``) are now set;
    * ``("event", (is_call, thread, op_index, invocation_or_response))``
      — a call or return that respects the one-open-call-per-thread
      and increasing-``op_index`` rules, as a plain tuple: the
      :class:`~repro.core.events.Event` it stands for is built only by a
      consumer that keeps events (:func:`load_trace`);
    * ``("indeterminate", (thread, op_index, why))`` — a marker for a
      call that is open (it stays open: the thread is retired);
    * ``("end", outcome)`` — the end marker; ``outcome`` is now set and
      any further line is an error.

    ``ts`` is the timestamp annotation of the line just fed (0 without
    one).  The
    decoder keeps one open and one last ``op_index`` per thread and
    nothing per operation, so it costs O(1) per line and O(threads)
    memory whatever the trace length.  Invocations and responses are
    interned by their text (:func:`_interned`): an event that repeats
    one hands out the object made the first time, so a line costs
    no object beyond its parsed dict and the event tuple.  A decoder
    that has raised is finished: the trace is rejected, there is
    nothing to resume.
    """

    def __init__(self) -> None:
        self.version: int | None = None  #: None until the header arrived
        self.n_threads = 0
        self.outcome: str | None = None  #: the end marker's outcome
        self.ts = 0.0
        self._open: dict[int, int] = {}  #: thread → op_index of its open call
        self._last: dict[int, int] = {}  #: thread → op_index of its last call
        #: ``(m, a, g)`` texts → Invocation, ``(k, v)`` texts → Response.
        self._invocations: dict[tuple, Invocation] = {}
        self._responses: dict[tuple, Response] = {}

    def feed(self, obj: dict) -> tuple[str, Any]:
        try:
            if self.version is None:
                return "header", self._header(obj)
            if obj.get("format") == TRACE_FORMAT:
                raise TraceError(
                    "a second trace header mid-stream "
                    "(two writers sharing one trace?)"
                )
            return self._event(obj)
        except (KeyError, TypeError, ValueError, SyntaxError) as exc:
            raise TraceError(f"malformed trace line: {exc!r}") from None

    def _header(self, obj: dict) -> dict:
        if obj.get("format") != TRACE_FORMAT:
            raise TraceError(
                f"not a trace file: format is {obj.get('format')!r} "
                f"(expected {TRACE_FORMAT!r})"
            )
        version = obj.get("version")
        if version != TRACE_VERSION:
            raise TraceError(
                f"trace file version {version!r} is not supported (this "
                f"reader understands version {TRACE_VERSION} only; a "
                "version-1 file is an old --dump-traces run: dump it again)"
            )
        try:
            self.n_threads = int(obj["sessions"])
        except (KeyError, TypeError, ValueError):
            raise TraceError("header lacks a valid sessions") from None
        self.version = version
        return obj

    def _event(self, obj: dict) -> tuple[str, Any]:
        if self.outcome is not None:
            raise TraceError(
                "event after the end marker (two writers sharing one trace?)"
            )
        kind = obj["e"]
        self.ts = float(obj.get("ts", 0.0))
        if kind == "end":
            self.outcome = str(obj["outcome"])
            return "end", self.outcome
        thread, op_index = int(obj["t"]), int(obj["i"])
        if kind == "c":
            invocation = _interned(
                self._invocations,
                (obj["m"], obj["a"], obj.get("g")),
                _invocation,
            )
            if op_index <= self._last.get(thread, -1):
                raise TraceError(
                    f"duplicate call for operation {(thread, op_index)} "
                    "(two writers sharing one trace?)"
                )
            if thread in self._open:
                # The recorder retires a logical thread the moment one of
                # its operations goes indeterminate; a second open call on
                # the same thread cannot come from one well-behaved writer.
                raise TraceError(
                    f"thread {thread} issued a call while one is still open "
                    "(two writers sharing one trace?)"
                )
            self._open[thread] = self._last[thread] = op_index
            return "event", (True, thread, op_index, invocation)
        if kind == "r":
            response = _interned(
                self._responses, (obj["k"], obj["v"]), _response
            )
            if self._open.pop(thread, None) != op_index:
                raise self._no_open_call("return", thread, op_index)
            return "event", (False, thread, op_index, response)
        if kind == "x":
            if self._open.get(thread) != op_index:
                raise self._no_open_call("indeterminate marker", thread, op_index)
            return "indeterminate", (thread, op_index, str(obj["why"]))
        raise ValueError(f"unknown event kind {kind!r}")

    @staticmethod
    def _no_open_call(what: str, thread: int, op_index: int) -> TraceError:
        return TraceError(
            f"{what} for operation {(thread, op_index)} which has no open call"
        )


def _assemble(path: str, batches: Iterable[TraceScan]) -> TraceFile:
    """Run the lines of *batches* through one decoder into a :class:`TraceFile`."""
    decoder = TraceDecoder()
    events: list[Event] = []
    trace = meta = None
    torn = False
    for batch in batches:
        torn = batch.torn
        for segment in batch.segments:
            try:
                kind, item = decoder.feed(segment.obj)
            except TraceError as exc:
                raise TraceError(
                    f"trace file {path!r} at byte offset {segment.start}: {exc}"
                ) from None
            if kind == "event":
                is_call, thread, op_index, what = item
                key = (thread, op_index)
                if is_call:
                    meta.intervals[key] = (decoder.ts, None)
                    events.append(Event.call(thread, op_index, what))
                else:
                    meta.intervals[key] = (meta.intervals[key][0], decoder.ts)
                    events.append(Event.ret(thread, op_index, what))
            elif kind == "indeterminate":
                meta.indeterminate.append(item)
            elif kind == "end":
                meta.outcome = item
            else:  # the header: always, and only, the first line
                meta = LiveTraceMeta(
                    sessions=decoder.n_threads, model=item.get("model")
                )
                trace = TraceFile(
                    n_threads=decoder.n_threads,
                    live=meta,
                    subject=item.get("subject"),
                    test=item.get("test"),
                )
    if trace is None:
        raise TraceError(
            f"trace file {path!r} is empty (no complete header line)"
        )
    trace.truncated = torn
    n_threads = trace.n_threads = max(
        meta.sessions, 1 + max((e.thread for e in events), default=-1)
    )
    # Calls that never returned are pending.  A dumped execution that
    # ended stuck or divergent was observed to block, so its history is
    # stuck and must be justified (Definitions 2/3); in a live recording
    # nothing was observed to block, so the pending operations are
    # checked under the open-history (may-or-may-not-have-taken-effect)
    # semantics.
    trace.histories.append(
        History(
            events,
            n_threads=n_threads,
            stuck=meta.outcome in STUCK_OUTCOMES,
            divergent=meta.outcome == "divergent",
        )
    )
    return trace


def load_trace(path: str) -> TraceFile:
    """Read a trace file; raises :class:`TraceError` on anything malformed.

    :func:`scan_blocks` → :class:`TraceDecoder` → assembly, a block at a
    time, the events assembled into the recording's one history.  A torn tail —
    bytes after the last newline, see the module docstring — is not
    consumed and is flagged via ``TraceFile.truncated``; every complete
    line before it is returned.  Anything else wrong raises
    :class:`TraceError` naming the file and the byte offset of the
    offending line.
    """
    return _assemble(path, _scan_path(path))


def read_trace_header(path: str) -> TraceFile:
    """What :func:`load_trace` would return had *path* ended after line 1.

    Runs the header through the same decoder without reading past the
    block that line 1 ends in, so a caller that only needs ``subject`` /
    ``live.model`` (``lineup monitor`` and ``lineup watch``
    defaulting ``--model``) does not parse the format itself.
    """
    with closing(iter_trace(path)) as segments:
        return _assemble(path, [TraceScan(list(islice(segments, 1)))])


def default_trace_dir(directory: str, subject: str, test: dict) -> str:
    """Deterministic dump directory for one (subject, test) pair.

    Both the worker dumping the traces and the supervisor writing the
    crash report that references them derive the same name from the same
    inputs: a sanitized subject plus a content hash of the test.
    """
    digest = hashlib.sha1(
        json.dumps({"subject": subject, "test": test}, sort_keys=True).encode()
    ).hexdigest()[:12]
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in subject)
    return os.path.join(directory, f"{safe}-{digest}")
