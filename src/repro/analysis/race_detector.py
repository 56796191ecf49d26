"""Happens-before data race detection (paper Section 5.6).

The paper compares Line-Up with "the happens-before based dynamic race
detector included with CHESS".  This module is that detector for our
runtime: it replays the access log of one execution, maintaining vector
clocks per thread and per synchronization object, and reports every pair
of conflicting accesses to a *plain* (non-volatile) location that are not
ordered by happens-before.

Synchronization edges:

* lock release → later acquire of the same lock,
* volatile write (including successful CAS / exchange / add) → later
  volatile read of the same cell,
* and program order within each thread.

Because the scheduler serializes execution, the access log is a total
order; happens-before is the standard reduction over it.  The paper's
finding — the .NET classes contain only *benign* races thanks to
disciplined volatile/interlocked use — is reproduced by the Section 5.6
benchmark, which runs this detector over the same executions Line-Up
explores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.vector_clock import VectorClock
from repro.runtime import AccessRecord

__all__ = ["Race", "RaceDetector", "detect_races"]


@dataclass(frozen=True)
class Race:
    """Two unordered conflicting accesses to the same plain location."""

    location: int
    name: str
    first: AccessRecord
    second: AccessRecord


class RaceDetector:
    """Streaming happens-before race detector over one access log."""

    def __init__(self) -> None:
        self._thread_vc: dict[int, VectorClock] = {}
        self._sync_vc: dict[int, VectorClock] = {}
        #: per plain location: past accesses with their clocks.
        self._history: dict[int, list[tuple[AccessRecord, VectorClock]]] = {}
        self.races: list[Race] = []

    def _vc(self, thread: int) -> VectorClock:
        if thread not in self._thread_vc:
            self._thread_vc[thread] = VectorClock().tick(thread)
        return self._thread_vc[thread]

    def feed(self, access: AccessRecord) -> None:
        """Process one access record (in execution order)."""
        thread = access.thread
        vc = self._vc(thread)
        # Key on the instance uid where available: location ids restart
        # per execution, so a shared (pre-allocated) instance can collide
        # with a factory-allocated one in the same log.
        key = access.uid or access.location
        if access.volatile:
            # Synchronization access: acquire joins the location's clock,
            # release publishes ours.  Reads acquire; writes (and lock
            # releases) release; CAS and lock acquires do both.
            loc_vc = self._sync_vc.get(key)
            if access.kind in ("read", "cas-fail", "acquire", "cas-ok") and loc_vc:
                vc = vc.join(loc_vc)
            if access.kind in ("write", "cas-ok", "release"):
                self._sync_vc[key] = vc.copy()
            self._thread_vc[thread] = vc.tick(thread)
            return
        # Plain access: check against conflicting unordered past accesses.
        past = self._history.setdefault(key, [])
        for previous, prev_vc in past:
            if previous.thread == thread:
                continue
            if not (previous.is_write or access.is_write):
                continue
            if not prev_vc.happens_before(vc):
                self.races.append(
                    Race(access.location, access.name, previous, access)
                )
        past.append((access, vc.copy()))
        self._thread_vc[thread] = vc.tick(thread)

    def feed_all(self, accesses: Iterable) -> "RaceDetector":
        for access in accesses:
            if isinstance(access, AccessRecord):
                self.feed(access)
        return self



def detect_races(accesses: Iterable) -> list[Race]:
    """Convenience wrapper: all races in one execution's access log."""
    return RaceDetector().feed_all(accesses).races
