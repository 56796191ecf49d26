"""The pre-index dependence analysis, kept verbatim as the test oracle.

Until PR 14 ``repro.reduction`` derived step footprints, oriented the
dependent step pairs of the execution fingerprint and joined the
happens-before clocks with scans over *all* earlier steps.  Those bodies
live on here, unchanged apart from their names and from calling each
other instead of the library, so the differential tests can require the
indexed implementation to produce byte-identical digests, equal
footprints and equal clocks.  Digests are persisted (checkpoints, swarm
shard states, ``generate`` corpora): do not "fix" anything in this file.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.analysis.vector_clock import VectorClock
from repro.reduction import HISTORY_LOCATION, StepFootprint, conflicts
from repro.runtime.scheduler import ExecutionOutcome

_WRITE_KINDS = frozenset({"write", "cas-ok", "acquire", "release"})
_READ_KINDS = frozenset({"read", "cas-fail"})


def _accesses_by_decision(self: ExecutionOutcome) -> list[list[Any]]:
    """Per-step access summary: accesses grouped by decision index."""
    out: list[list[Any]] = [[] for _ in self.decisions]
    for payload, segment in zip(self.accesses, self.access_segments):
        if 0 <= segment < len(out):
            out[segment].append(payload)
    return out


def _events_by_decision(self: ExecutionOutcome) -> list[list[Any]]:
    """Per-step event summary: harness events grouped by decision."""
    out: list[list[Any]] = [[] for _ in self.decisions]
    for payload, segment in zip(self.events, self.event_segments):
        if 0 <= segment < len(out):
            out[segment].append(payload)
    return out


def _performer(decision) -> int | None:
    if decision.kind == "thread":
        return decision.chosen
    return decision.running


def reference_step_footprints(outcome: ExecutionOutcome) -> list[StepFootprint]:
    """Per-decision footprints for one execution, index-aligned with
    ``outcome.decisions``."""
    n = len(outcome.decisions)
    reads: list[set[int]] = [set() for _ in range(n)]
    writes: list[set[int]] = [set() for _ in range(n)]
    for record, segment in zip(outcome.accesses, outcome.access_segments):
        if not 0 <= segment < n:
            continue
        location = getattr(record, "location", None)
        if location is None:  # OpMark and friends carry no location
            continue
        if record.kind in _WRITE_KINDS:
            writes[segment].add(location)
        elif record.kind in _READ_KINDS:
            reads[segment].add(location)
        else:  # unknown kinds are conservatively writes
            writes[segment].add(location)

    # Observable steps: harness events (call/return) happened during them.
    for segment in outcome.event_segments:
        if 0 <= segment < n:
            writes[segment].add(HISTORY_LOCATION)

    truncated = outcome.divergent
    for index, decision in enumerate(outcome.decisions):
        if truncated:
            writes[index].add(HISTORY_LOCATION)
            continue
        if decision.free and decision.kind == "thread":
            # Operation-boundary switch: interleaving whole operations is
            # exactly what the check observes — never prune it.
            writes[index].add(HISTORY_LOCATION)

    # Enabled-set deltas: blocking predicates read shared state without
    # access records, so a step that (un)blocks some *other* thread has a
    # dependence the access stream cannot show.  Compare each thread
    # decision's options with the previous one; attribute the delta to
    # the step in between (the previous decision's step).  The performing
    # thread leaving the enabled set (it blocked or finished itself) is
    # its own program order and needs no edge.
    previous_index: int | None = None
    for index, decision in enumerate(outcome.decisions):
        if decision.kind != "thread":
            continue
        if previous_index is not None:
            before = set(outcome.decisions[previous_index].options)
            after = set(decision.options)
            performer = _performer(outcome.decisions[previous_index])
            delta = (before ^ after) - ({performer} if performer is not None else set())
            if delta:
                # Any segment between the two thread decisions may have
                # caused the (un)blocking; mark them all.
                for segment in range(previous_index, index):
                    writes[segment].add(HISTORY_LOCATION)
        previous_index = index

    return [
        StepFootprint(
            thread=_performer(decision),
            reads=frozenset(reads[index] - writes[index]),
            writes=frozenset(writes[index]),
        )
        for index, decision in enumerate(outcome.decisions)
    ]


def reference_happens_before_clocks(
    outcome: ExecutionOutcome, footprints: list[StepFootprint]
) -> list[VectorClock]:
    """Vector clock of each step: program order plus conflict edges."""
    clocks: list[VectorClock] = []
    last_of_thread: dict[int, VectorClock] = {}
    for index, footprint in enumerate(footprints):
        thread = footprint.thread
        clock = (
            last_of_thread.get(thread, VectorClock())
            if thread is not None
            else VectorClock()
        )
        for j in range(index):
            if footprints[j].thread != thread and conflicts(footprints[j], footprint):
                clock = clock.join(clocks[j])
        if thread is not None:
            clock = clock.tick(thread)
            last_of_thread[thread] = clock
        clocks.append(clock)
    return clocks


def _digest(parts: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8", "backslashreplace"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:32]


def reference_execution_fingerprint(
    outcome: ExecutionOutcome,
    footprints: "list[StepFootprint] | None" = None,
) -> str:
    """Canonical digest of one execution's Mazurkiewicz trace class."""
    if footprints is None:
        footprints = reference_step_footprints(outcome)
    parts: list[str] = [
        outcome.status,
        repr(outcome.stuck_kind),
        repr(outcome.pending_threads),
    ]

    # Per-thread projections: the sequence of (footprint, payload) each
    # thread performed, independent of global interleaving.
    by_thread: dict[int, list[str]] = {}
    events_by_decision = _events_by_decision(outcome)
    accesses_by_decision = _accesses_by_decision(outcome)
    for index, footprint in enumerate(footprints):
        thread = footprint.thread
        if thread is None:
            continue
        decision = outcome.decisions[index]
        value = repr(decision.chosen) if decision.kind == "value" else ""
        by_thread.setdefault(thread, []).append(
            "|".join(
                (
                    value,
                    ",".join(map(str, sorted(footprint.reads))),
                    ",".join(map(str, sorted(footprint.writes))),
                    ";".join(repr(e) for e in events_by_decision[index]),
                    ";".join(
                        f"{getattr(a, 'kind', a)}@{getattr(a, 'location', '')}"
                        for a in accesses_by_decision[index]
                    ),
                )
            )
        )
    for thread in sorted(by_thread):
        parts.append(f"T{thread}")
        parts.extend(by_thread[thread])

    # Orientation of dependent pairs, named by per-thread step counters
    # (canonical across interleavings; global indexes are not).
    counter: dict[int, int] = {}
    step_name: list[str] = []
    for footprint in footprints:
        thread = footprint.thread
        if thread is None:
            step_name.append("?")
            continue
        counter[thread] = counter.get(thread, 0) + 1
        step_name.append(f"{thread}.{counter[thread]}")
    pairs: list[str] = []
    for i in range(len(footprints)):
        for j in range(i + 1, len(footprints)):
            a, b = footprints[i], footprints[j]
            if a.thread is None or b.thread is None or a.thread == b.thread:
                continue
            if conflicts(a, b):
                pairs.append(f"{step_name[i]}<{step_name[j]}")
    parts.append("#conflicts")
    parts.extend(sorted(pairs))
    return _digest(parts)
