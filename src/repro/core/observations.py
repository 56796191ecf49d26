"""The observation-file format (paper Figure 7, Section 4.2).

Phase 1 records the synthesized specification in an XML file.  Histories
are grouped into ``<observation>`` sections; all histories in a section
exhibit the same operation sequences (and results) for each thread — our
:data:`Profile`.  The grouping has the two benefits the paper names: the
witness search only needs to scan one section, and the file stays humanly
navigable when the history sets grow.

Syntax, following the paper's example:

* ``<thread id="A">1 2</thread>`` — operation ids per thread, in program
  order; a pending (blocked) operation is marked with a ``B`` suffix.
* ``<op id="1" name="Add" args="200" />`` — one operation; completed ops
  carry ``result`` (or ``raised``) attributes.
* ``<history>1[ ]1 3[ ]3</history>`` — one interleaving; ``i[`` is the
  call and ``]i`` the return of operation i, and a stuck history ends
  with ``#``.

Values (arguments and results) are serialized with ``repr`` and parsed
back with ``ast.literal_eval``, so any literal-representable value round
trips.

Written files carry a format envelope on the root element —
``format="lineup-observations" version="1"`` — so a future format change
can be detected instead of misparsed.  Loading accepts envelope-less
legacy files (everything written before the envelope existed) and raises
:class:`ObservationFileError` on a foreign format name or an unsupported
version.
"""

from __future__ import annotations

import ast
from typing import Iterable
from xml.etree import ElementTree as ET

from repro.core.events import Invocation, Response
from repro.core.fileio import atomic_write_text
from repro.core.history import (
    History, Profile, SerialHistory, SerialStep, serial_step,
)
from repro.core.spec import ObservationSet

__all__ = [
    "OBSERVATION_FORMAT",
    "OBSERVATION_VERSION",
    "ObservationFileError",
    "history_line",
    "load_observations",
    "observations_from_xml",
    "observations_to_xml",
    "save_observations",
]

#: Envelope identifying the file format (root-element attributes).
OBSERVATION_FORMAT = "lineup-observations"
OBSERVATION_VERSION = 1


class ObservationFileError(Exception):
    """An observation file could not be read or parsed.

    Raised with the offending path and underlying cause for anything from
    a missing file to truncated XML or a malformed value attribute, so
    callers (and users) see one clear error type instead of a grab bag of
    ``OSError`` / ``xml`` / ``ast`` internals.
    """


def _thread_label(thread: int) -> str:
    names = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return names[thread] if thread < 26 else f"T{thread}"


def _thread_from_label(label: str) -> int:
    names = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if len(label) == 1 and label in names:
        return names.index(label)
    if label.startswith("T"):
        return int(label[1:])
    raise ValueError(f"bad thread label {label!r}")


def _op_ids_for_profile(profile: Profile) -> dict[tuple[int, int], int]:
    """Assign 1-based op ids per the paper: thread A's ops first, then B's."""
    ids: dict[tuple[int, int], int] = {}
    next_id = 1
    for thread, row in enumerate(profile):
        for index in range(len(row)):
            ids[(thread, index)] = next_id
            next_id += 1
    return ids


def history_line(
    history: History | SerialHistory, ids: dict[tuple[int, int], int]
) -> str:
    """Render a history in the ``1[ ]1`` interleaving syntax of Fig. 7."""
    parts: list[str] = []
    if isinstance(history, SerialHistory):
        counters: dict[int, int] = {}
        for step in history.steps:
            index = counters.get(step.thread, 0)
            counters[step.thread] = index + 1
            op_id = ids[(step.thread, index)]
            parts.append(f"{op_id}[")
            if step.response is not None:
                parts.append(f"]{op_id}")
        if history.stuck:
            parts.append("#")
    else:
        for event in history.events:
            op_id = ids[(event.thread, event.op_index)]
            parts.append(f"{op_id}[" if event.is_call else f"]{op_id}")
        if history.stuck:
            parts.append("#")
    return " ".join(parts)


def _value_to_attr(value: object) -> str:
    return repr(value)


def _attr_to_value(text: str) -> object:
    return ast.literal_eval(text)


def observations_to_xml(observations: ObservationSet) -> str:
    """Serialize an observation set to the Fig. 7 XML format."""
    root = ET.Element("observationset")
    root.set("format", OBSERVATION_FORMAT)
    root.set("version", str(OBSERVATION_VERSION))
    root.set("threads", str(observations.n_threads))
    for profile in observations.profiles():
        histories = [
            *observations.full_candidates(profile),
            *observations.stuck_candidates(profile),
        ]
        section = ET.SubElement(root, "observation")
        ids = _op_ids_for_profile(profile)
        for thread, row in enumerate(profile):
            entries = []
            for index, (_invocation, response) in enumerate(row):
                suffix = "B" if response is None else ""
                entries.append(f"{ids[(thread, index)]}{suffix}")
            el = ET.SubElement(section, "thread")
            el.set("id", _thread_label(thread))
            el.text = " ".join(entries)
        for thread, row in enumerate(profile):
            for index, (invocation, response) in enumerate(row):
                op = ET.SubElement(section, "op")
                op.set("id", str(ids[(thread, index)]))
                op.set("name", invocation.method)
                if invocation.args:
                    op.set("args", _value_to_attr(invocation.args))
                if response is not None:
                    if response.kind == "raised":
                        op.set("raised", str(response.value))
                    else:
                        op.set("result", _value_to_attr(response.value))
        for history in histories:
            line = ET.SubElement(section, "history")
            line.text = history_line(history, ids)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def _check_envelope(root: ET.Element) -> None:
    """Validate the format envelope; silently accept legacy files.

    Legacy files (written before the envelope existed) carry neither
    attribute and load fine; a file that *does* declare a format must
    declare ours at a version we read.
    """
    declared_format = root.get("format")
    declared_version = root.get("version")
    if declared_format is None and declared_version is None:
        return
    if declared_format != OBSERVATION_FORMAT:
        raise ObservationFileError(
            f"not an observation file: format is {declared_format!r}, "
            f"expected {OBSERVATION_FORMAT!r}"
        )
    try:
        version = int(declared_version or "")
    except ValueError:
        raise ObservationFileError(
            f"observation file has a malformed version {declared_version!r}"
        ) from None
    if version != OBSERVATION_VERSION:
        raise ObservationFileError(
            f"observation file version {version} is not supported "
            f"(this reader understands version {OBSERVATION_VERSION})"
        )


def observations_from_xml(text: str) -> ObservationSet:
    """Parse an observation file back into an :class:`ObservationSet`."""
    root = ET.fromstring(text)
    _check_envelope(root)
    observations = ObservationSet(int(root.get("threads", "0")))
    for section in root.findall("observation"):
        ops: dict[int, SerialStep] = {}
        order: dict[int, list[int]] = {}
        for thread_el in section.findall("thread"):
            thread = _thread_from_label(thread_el.get("id", "A"))
            entries = (thread_el.text or "").split()
            order[thread] = [int(e.rstrip("B")) for e in entries]
        for op_el in section.findall("op"):
            op_id = int(op_el.get("id", "0"))
            args_text = op_el.get("args")
            invocation = Invocation(
                op_el.get("name", ""),
                tuple(_attr_to_value(args_text)) if args_text else (),
            )
            response: Response | None
            if op_el.get("raised") is not None:
                response = Response("raised", op_el.get("raised"))
            elif op_el.get("result") is not None:
                response = Response("ok", _attr_to_value(op_el.get("result", "None")))
            else:
                response = None
            thread = next(t for t, ids in order.items() if op_id in ids)
            ops[op_id] = serial_step(thread, invocation, response)
        for history_el in section.findall("history"):
            tokens = (history_el.text or "").split()
            steps: list[SerialStep] = []
            stuck = False
            for token in tokens:
                if token == "#":
                    stuck = True
                elif token.endswith("["):
                    steps.append(ops[int(token[:-1])])
                # ``]i`` return markers carry no extra information for a
                # serial history; the call token already has the response.
            observations.add(SerialHistory(tuple(steps), stuck=stuck))
    return observations


def save_observations(observations: ObservationSet, path: str) -> None:
    """Write the observation file to *path* (atomically: temp + rename).

    A crash mid-write leaves the previous file intact; readers never see
    a truncated observation set.
    """
    atomic_write_text(path, observations_to_xml(observations))


def load_observations(path: str) -> ObservationSet:
    """Read an observation file from *path*.

    Raises :class:`ObservationFileError` when the file is missing,
    unreadable, truncated, or otherwise malformed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ObservationFileError(
            f"cannot read observation file {path!r}: {exc}"
        ) from exc
    try:
        return observations_from_xml(text)
    except ObservationFileError:
        raise  # envelope mismatches already carry a precise message
    except (ET.ParseError, ValueError, SyntaxError, KeyError, StopIteration) as exc:
        raise ObservationFileError(
            f"corrupt observation file {path!r}: {exc}"
        ) from exc
