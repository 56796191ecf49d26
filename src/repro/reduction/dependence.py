"""The dependence oracle: which scheduling steps commute?

Schedule-space reduction (sleep sets, DPOR) is only sound relative to a
*dependence relation*: two steps may be reordered — and one of the two
orders pruned — exactly when they are independent.  This module derives
that relation for one :class:`~repro.runtime.scheduler.ExecutionOutcome`
from two ingredients the runtime already records:

* the ``Decision`` trace, which says which logical thread performed each
  step (and which threads were enabled, which exposes blocking), and
* the ``AccessRecord`` stream with per-decision segment attribution
  (``ExecutionOutcome.access_segments``), which says what shared
  locations each step read or wrote.

Two steps *conflict* (are dependent) when they run on different threads
and touch a common location with at least one write-like access.  Lock
and atomic operations count as writes on the lock/cell location
(``acquire``/``release``/``cas-ok``), so mutual exclusion and CAS races
are never pruned away; a failed CAS (``cas-fail``) is a read.

Three conservative extensions keep the reduction *history-preserving*
(the observable of a linearizability check is the history — the
interleaving of call/return events — not the final state):

* steps that record a harness event, and steps taken at *free* decisions
  (operation boundaries), write the reserved pseudo-location
  :data:`HISTORY_LOCATION`, making every operation-boundary reordering
  dependent.  The reduction therefore never merges two executions with
  different histories; it only prunes intra-operation step placements.
* a step after which the *enabled set* changed (beyond the performing
  thread itself blocking) also writes :data:`HISTORY_LOCATION`: blocking
  predicates peek at shared state without access records, so
  enable/disable effects are the one dependence the access stream cannot
  see.
* every step of a ``divergent`` (watchdog-truncated) execution is marked
  dependent — its access stream is incomplete, so nothing may be pruned
  on its account.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Sequence

from repro.analysis.vector_clock import VectorClock
from repro.runtime.scheduler import ExecutionOutcome

__all__ = [
    "DependenceIndex",
    "HISTORY_LOCATION",
    "StepFootprint",
    "conflicts",
    "dependence_index",
    "earlier_conflicts",
    "happens_before_clocks",
    "step_footprints",
]

#: Reserved pseudo-location for observable (history-affecting) steps.
#: Real location ids start at 1 (see ``Scheduler.new_location_id``).
HISTORY_LOCATION = 0

#: Access kinds with read semantics.  Every other kind is write-like: a
#: plain write, a successful CAS, a lock transition (two acquires — or an
#: acquire and a release — of one lock never commute) and, conservatively,
#: any kind this module does not know.
_READ_KINDS = frozenset({"read", "cas-fail"})

#: ``getattr`` default that tells "has no ``location``" from ``None``.
_ABSENT = object()


@dataclass(frozen=True)
class StepFootprint:
    """What one scheduling step (one decision's segment) did.

    ``thread`` is the logical thread that performed the step (None only
    for degenerate decisions with no performer).  ``reads``/``writes``
    are the location-id sets touched by the step's access records, with
    :data:`HISTORY_LOCATION` added to ``writes`` for observable steps.
    """

    thread: int | None
    reads: frozenset[int] = field(default_factory=frozenset)
    writes: frozenset[int] = field(default_factory=frozenset)

    @property
    def observable(self) -> bool:
        return HISTORY_LOCATION in self.writes

    def to_json(self) -> list:
        return [self.thread, sorted(self.reads), sorted(self.writes)]

    @classmethod
    def from_json(cls, data: list) -> "StepFootprint":
        thread, reads, writes = data
        return cls(thread, frozenset(reads), frozenset(writes))


def conflicts(a: StepFootprint, b: StepFootprint) -> bool:
    """Whether two steps are dependent (same-location access, one write).

    Steps of the same thread are ordered by the program anyway; the
    relation only matters across threads, but same-thread pairs report
    dependent for safety (callers should not ask).
    """
    if a.thread is not None and a.thread == b.thread:
        return True
    return bool(
        (a.writes & b.writes)
        or (a.writes & b.reads)
        or (a.reads & b.writes)
    )


class DependenceIndex:
    """What each step of one execution did, and which earlier steps of
    other threads it depends on — from one linear pass over the outcome.

    Index-aligned with ``outcome.decisions``:

    * ``threads[i]`` — the logical thread that performed step *i* (None
      only for degenerate decisions with no performer);
    * ``reads[i]`` / ``writes[i]`` — the location ids the step touched,
      ``reads`` excluding what it also wrote, :data:`HISTORY_LOCATION`
      added to ``writes`` by the rules in the module docstring;
    * ``accesses[i]`` — the step's access records in order, as
      ``kind@location`` joined by ``;`` (the fingerprint hashes it);
    * ``earlier[i]`` — ascending indexes of the earlier steps of *other*
      threads that conflict with step *i* (:func:`earlier_conflicts`;
      derived on first use — sleep sets alone never ask).

    Obtain it with :func:`dependence_index`, which derives it at most once
    per outcome.
    """

    __slots__ = ("threads", "reads", "writes", "accesses", "_earlier", "_footprints")

    def __init__(self, outcome: ExecutionOutcome) -> None:
        decisions = outcome.decisions
        n = len(decisions)
        reads: list[set[int]] = [set() for _ in range(n)]
        writes: list[set[int]] = [set() for _ in range(n)]
        accesses = [""] * n

        for record, segment in zip(outcome.accesses, outcome.access_segments):
            if not 0 <= segment < n:
                continue
            kind = getattr(record, "kind", record)
            location = getattr(record, "location", _ABSENT)
            absent = location is _ABSENT  # OpMark and friends carry no location
            text = f"{kind}@" if absent else f"{kind}@{location}"
            before = accesses[segment]
            accesses[segment] = f"{before};{text}" if before else text
            if absent or location is None:
                continue
            if kind in _READ_KINDS:
                reads[segment].add(location)
            else:
                writes[segment].add(location)

        # Observable steps: harness events (call/return) happened during them.
        for segment in outcome.event_segments:
            if 0 <= segment < n:
                writes[segment].add(HISTORY_LOCATION)

        threads: list[int | None] = []
        truncated = outcome.divergent
        previous: int | None = None  # index of the previous thread decision
        for index, decision in enumerate(decisions):
            if decision.kind != "thread":
                threads.append(decision.running)
                if truncated:
                    writes[index].add(HISTORY_LOCATION)
                continue
            threads.append(decision.chosen)
            if truncated or decision.free:
                # Operation-boundary switch: interleaving whole operations
                # is exactly what the check observes — never prune it.
                writes[index].add(HISTORY_LOCATION)
            # Enabled-set deltas: blocking predicates read shared state
            # without access records, so a step that (un)blocks some
            # *other* thread has a dependence the access stream cannot
            # show.  Compare each thread decision's options with the
            # previous one's.  The performing thread leaving the enabled
            # set (it blocked or finished itself) is its own program order
            # and needs no edge.
            if previous is not None:
                before = decisions[previous]
                if before.options != decision.options:
                    delta = set(before.options) ^ set(decision.options)
                    delta.discard(before.chosen)
                    if delta:
                        # Any segment between the two thread decisions may
                        # have caused the (un)blocking; mark them all.
                        for segment in range(previous, index):
                            writes[segment].add(HISTORY_LOCATION)
            previous = index

        for read, written in zip(reads, writes):
            if read and written:
                read -= written

        self.threads = threads
        self.reads = reads
        self.writes = writes
        self.accesses = accesses
        self._earlier: list[list[int]] | None = None
        self._footprints: list[StepFootprint] | None = None

    @property
    def earlier(self) -> list[list[int]]:
        if self._earlier is None:
            self._earlier = earlier_conflicts(self.threads, self.reads, self.writes)
        return self._earlier

    def footprints(self) -> list[StepFootprint]:
        """The steps as :class:`StepFootprint` objects (built on first use:
        the sleep sets store and compare them, the fingerprint does not)."""
        if self._footprints is None:
            self._footprints = [
                StepFootprint(thread, frozenset(reads), frozenset(writes))
                for thread, reads, writes in zip(
                    self.threads, self.reads, self.writes
                )
            ]
        return self._footprints


def dependence_index(outcome: ExecutionOutcome) -> DependenceIndex:
    """The :class:`DependenceIndex` of *outcome*, derived at most once.

    An outcome is final by the time a strategy's ``finish`` or a checker
    sees it, so the index is kept on the outcome and shared by the
    reduction strategy and the execution fingerprint.
    """
    index = outcome.dependence
    if index is None:
        index = outcome.dependence = DependenceIndex(outcome)
    return index


def earlier_conflicts(
    threads: Sequence[int | None],
    reads: Sequence[Collection[int]],
    writes: Sequence[Collection[int]],
) -> list[list[int]]:
    """Per step, the ascending earlier steps of other threads it conflicts with.

    Equal to ``[j for j in range(i) if threads[j] != threads[i] and
    conflicts(step j, step i)]`` for every *i*, but found through a
    ``location -> earlier readers / earlier writers`` index: O(steps +
    conflicting pairs) instead of a scan over all earlier steps.
    """
    readers: dict[int, list[int]] = {}
    writers: dict[int, list[int]] = {}
    out: list[list[int]] = []
    for index, thread in enumerate(threads):
        hits: list[int] = []
        for location in writes[index]:
            hits += readers.get(location, ())
            earlier = writers.get(location)
            if earlier is None:
                writers[location] = [index]
            else:
                hits += earlier
                earlier.append(index)
        for location in reads[index]:
            hits += writers.get(location, ())
            readers.setdefault(location, []).append(index)
        # Same-thread hits (the step itself included, when it reads what
        # it writes) are program order, not conflicts.
        out.append(sorted({j for j in hits if threads[j] != thread}) if hits else hits)
    return out


def step_footprints(outcome: ExecutionOutcome) -> list[StepFootprint]:
    """Per-decision footprints for one execution, index-aligned with
    ``outcome.decisions``."""
    return dependence_index(outcome).footprints()


def happens_before_clocks(
    outcome: ExecutionOutcome, footprints: list[StepFootprint]
) -> list[VectorClock]:
    """Vector clock of each step: program order plus conflict edges.

    *footprints* is ``step_footprints(outcome)``; the conflict edges are
    the outcome's :attr:`DependenceIndex.earlier` lists.  ``clocks[i]``
    includes step *i* itself (its own component is ticked), so
    ``clocks[j].happens_before(clocks[i])`` reads "step j happens before
    step i" whenever ``j != i``.
    """
    earlier = dependence_index(outcome).earlier
    clocks: list[VectorClock] = []
    last_of_thread: dict[int, VectorClock] = {}
    for index, footprint in enumerate(footprints):
        thread = footprint.thread
        clock = (
            last_of_thread.get(thread, VectorClock())
            if thread is not None
            else VectorClock()
        )
        for j in earlier[index]:
            clock = clock.join(clocks[j])
        if thread is not None:
            clock = clock.tick(thread)
            last_of_thread[thread] = clock
        clocks.append(clock)
    return clocks
