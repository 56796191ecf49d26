"""Phase 1 by state: each serial state is run once, its future enumerated.

Phase 1 must enumerate every serial execution of a test (Theorem 5), and
a test's serial executions share almost all of their work: a 3×3 test has
1 680 of them but only a few hundred distinct operation boundaries.  In
serial mode nothing but the thread positions and the object's state
decides what can happen from a boundary on — no operation overlaps
another — so two boundaries with equal positions and equal object state
(:func:`repro.runtime.statekey.state_key`) have equal futures: the same
ordered tree of decisions, events and step counts.  This module explores
each such *node* once and enumerates the rest from what it recorded (the
memo of Horn and Kroening, applied to phase 1).

The search rides on the plain DFS of stateless replay.  At each free
thread decision past the replayed prefix of an execution
(:class:`StateDriver`) the node is keyed; an unseen node is recorded, and a
node seen before ends the execution there — a *cut*.  DFS order makes a
node seen before a closed one: the DFS left its subtree, so every path
below it is recorded as a chain of *segments* (the decisions, serial steps
and step count from one node to the next node, or to the end of the
execution).  The harness then enumerates the paths below the cut node in
the order replay would have run them, so every list, table and witness
built from them is the one replay builds.

Only what replay would reproduce is reused: a subtree holding an execution
the watchdog cut off, or one cut by ``max_steps`` — or that the step count
at the cut could push past ``max_steps`` — is explored again.  The search
refuses (and the rest of the test runs as plain replay) when the object's
state cannot be keyed or a response is not a plain value.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from repro.core.events import RETURN
from repro.core.history import History, SerialStep
from repro.runtime import DFSStrategy, ExecutionOutcome, SchedulingStrategy
from repro.runtime.core import Decision, LogicalThread, SerialDriver
from repro.runtime.errors import ExecutionAbort, SchedulerError
from repro.runtime.statekey import StateKeyRefused, state_key

__all__ = ["CUT", "DeferCut", "StateDriver", "StateSearch"]

#: Status of an execution that ended at a node explored earlier.
CUT = "cut"


class _Segment:
    """What one execution did from a node to the next node or its end."""

    __slots__ = (
        "decisions", "first", "steps", "cost", "arrival", "next", "stuck", "spoilt",
    )

    def __init__(
        self,
        decisions: list[Decision],
        steps: tuple[SerialStep, ...],
        cost: int,
        arrival: int | None = None,
        nxt: "_Node | None" = None,
        stuck: bool = False,
        spoilt: bool = False,
    ) -> None:
        self.decisions = decisions  #: every decision, the node's free one first
        self.first = decisions[0].chosen if decisions else None
        self.steps = steps  #: the serial steps of its operations
        self.cost = cost  #: scheduler steps taken
        self.arrival = arrival  #: the running thread at the next node
        self.next = nxt  #: the next node, None at the end of the execution
        self.stuck = stuck
        #: ended by the watchdog or by ``max_steps``: a replay may end otherwise
        self.spoilt = spoilt


class _Node:
    """A (thread positions, object state) key's recorded future."""

    __slots__ = ("segments", "orders", "summary")

    def __init__(self) -> None:
        #: in DFS order for the running thread of the first visit
        self.segments: list[_Segment] = []
        self.orders: dict[int | None, list[_Segment]] = {}
        self.summary: tuple[bool, int] | None = None

    def ordered(self, arrival: int | None) -> list[_Segment]:
        """The segments in the order the DFS takes them when *arrival* is
        the running thread: its default choice first (the running thread
        if it may go on, else the first option), then the options in
        order.  Only the node's own decision depends on *arrival*."""
        order = self.orders.get(arrival)
        if order is None:
            order = self.segments
            decisions = order[0].decisions
            if decisions:
                options = decisions[0].options
                default = arrival if arrival in options else options[0]
                order = sorted(
                    order, key=lambda s: (s.first != default, options.index(s.first))
                )
            self.orders[arrival] = order
        return order

    def reusable(self, steps: int, max_steps: int) -> bool:
        """Whether every recorded path below reproduces after *steps*."""
        spoilt, suffix = self.summary or self._summarize()
        return not spoilt and steps + suffix <= max_steps

    def _summarize(self) -> tuple[bool, int]:
        """(any spoilt path below, the most steps a path below takes)."""
        spoilt, suffix = False, 0
        for segment in self.segments:
            cost = segment.cost
            spoilt = spoilt or segment.spoilt
            if segment.next is not None:
                below, longest = segment.next.summary or segment.next._summarize()
                spoilt = spoilt or below
                cost += longest
            suffix = max(suffix, cost)
        self.summary = (spoilt, suffix)
        return self.summary


class StateSearch:
    """The nodes of one test's phase 1 and the execution running now.

    The harness calls :meth:`begin` before each execution, the
    :class:`StateDriver` calls :meth:`boundary` at each free thread
    decision, and the harness calls :meth:`end` after an execution that
    ran to its end, or reads :attr:`cut` after one that stopped at a node
    explored earlier.
    """

    def __init__(
        self,
        n_threads: int,
        codes: dict[int, int],
        max_steps: int,
        strategy: DFSStrategy,
    ) -> None:
        self.n_threads = n_threads
        self.codes = codes  #: the event table's: an interned event's id has a code
        self.max_steps = max_steps
        self.strategy = strategy
        #: why keying stopped (the rest of the test runs as replay), or None
        self.refused: str | None = None
        self.graph: dict[tuple, _Node] = {}
        #: per free decision of the running execution, in order, the node
        #: it records segments under (None: it records none) — the prefix a
        #: later execution replays keeps the entries of this one
        self.path: list[_Node | None] = []
        self.begin(None)

    # -- one execution ---------------------------------------------------

    def begin(self, obj: Any) -> None:
        """A new execution on *obj*, the object under test."""
        self.obj = obj
        #: (node, running thread) the execution stopped at, or None
        self.cut: tuple[_Node, int | None] | None = None
        self.index = 0  #: free decisions seen
        self.done = [0] * self.n_threads  #: operations each thread finished
        self.current: _Node | None = None  #: the node of the last free decision
        self.marks = (0, 0, 0)  #: (events, decisions, steps) there

    def boundary(
        self,
        outcome: ExecutionOutcome,
        threads: Sequence[LogicalThread],
        running: LogicalThread | None,
    ) -> bool:
        """Key the free thread decision *outcome*'s execution is about to
        make, *running* deciding; True cuts the execution here."""
        if self.refused is not None or outcome.crashes:
            return False  # a crash ends phase 1 after this execution
        if not self._count(outcome.events):
            return False
        index = self.index
        self.index += 1
        path = self.path
        if self.strategy.replaying():
            if index == len(path):
                path.append(None)
            self.current = path[index]
            self._mark(outcome)
            return False
        try:
            key = (
                tuple([(t.state, self.done[t.tid]) for t in threads]),
                state_key(self.obj),
            )
        except StateKeyRefused as exc:
            self.refused = str(exc)
            return False
        arrival = None if running is None else running.tid
        node = self.graph.get(key)
        known = node is not None
        if not known:
            node = self.graph[key] = _Node()
        if self.current is not None:
            self.current.segments.append(
                self._segment(outcome, stuck=False, arrival=arrival, nxt=node)
            )
        del path[index:]
        if known and node.reusable(outcome.steps, self.max_steps):
            self.cut = (node, arrival)
            return True
        # A known node that replay may not reproduce is explored again
        # (its segments are recorded already); an unseen one records.
        self.current = None if known else node
        path.append(self.current)
        self._mark(outcome)
        return False

    def end(self, outcome: ExecutionOutcome) -> None:
        """The execution ran to its end: record its last segment."""
        if (
            self.refused is None
            and self._count(outcome.events)
            and self.current is not None
        ):
            cut_by_max_steps = (
                outcome.stuck_kind == "livelock" and outcome.steps > self.max_steps
            )
            self.current.segments.append(
                self._segment(
                    outcome,
                    stuck=outcome.status != "complete",
                    spoilt=outcome.divergent or cut_by_max_steps,
                )
            )

    def _count(self, events: list) -> bool:
        """Count the operations finished since the last free decision;
        False (and keying stops) on a response the event table did not
        intern — its value is not plain, so replay would not repeat it."""
        done, codes = self.done, self.codes
        for event in islice(events, self.marks[0], None):
            if event.kind == RETURN:
                if id(event) not in codes:
                    self.refused = "a response is not a plain value"
                    return False
                done[event.thread] += 1
        return True

    def _mark(self, outcome: ExecutionOutcome) -> None:
        self.marks = (len(outcome.events), len(outcome.decisions), outcome.steps)

    def _segment(
        self, outcome: ExecutionOutcome, stuck: bool, **fields: Any
    ) -> _Segment:
        events, decisions, steps = self.marks
        history = History(outcome.events[events:], self.n_threads, stuck=stuck)
        return _Segment(
            outcome.decisions[decisions:],
            history.to_serial().steps,
            outcome.steps - steps,
            stuck=stuck,
            **fields,
        )

    # -- the paths below a cut -------------------------------------------

    def paths(
        self, node: _Node, arrival: int | None
    ) -> Iterator[tuple[tuple, tuple[SerialStep, ...], bool, int]]:
        """Every recorded path below *node*, in the DFS order replay runs
        them: (its segments, last first, as nested pairs; its serial steps;
        stuck; its decision count)."""
        stack = [(iter(node.ordered(arrival)), None, (), 0)]
        while stack:
            segments, link, steps, decisions = stack[-1]
            for segment in segments:
                here = (segment, link)
                more = steps + segment.steps
                count = decisions + len(segment.decisions)
                below = segment.next
                if below is None:
                    yield here, more, segment.stuck, count
                else:
                    stack.append(
                        (iter(below.ordered(segment.arrival)), here, more, count)
                    )
                    break
            else:
                stack.pop()

    def rewind(self, outcome: ExecutionOutcome, count: int) -> None:
        """Leave the DFS where replay would be after the first *count*
        paths below the cut of *outcome* (a cap or budget stopped there):
        feed it their decisions, as their executions would have."""
        strategy = self.strategy
        node, arrival = self.cut
        prefix = [d for d in outcome.decisions if len(d.options) > 1]
        for k, (link, *_) in enumerate(islice(self.paths(node, arrival), count)):
            if k:
                strategy.begin()
                for d in prefix:
                    strategy.decide(d.kind, d.options, d.running, d.free)
            chain = []
            while link is not None:
                segment, link = link
                chain.append(segment)
            running = arrival
            for segment in reversed(chain):
                for i, d in enumerate(segment.decisions):
                    if len(d.options) > 1:
                        chosen = strategy.decide(
                            d.kind, d.options, running if i == 0 else d.running, d.free
                        )
                        if chosen != d.chosen:
                            raise SchedulerError(
                                "phase 1 by state left the DFS order: "
                                f"{d.kind}{d.options!r} chose {chosen!r}, "
                                f"recorded {d.chosen!r}"
                            )
                running = segment.arrival
            strategy.finish(outcome)


class StateDriver(SerialDriver):
    """The serial driver with a :class:`StateSearch` keying its free
    thread decisions (while :attr:`search` is set; otherwise it is the
    plain driver)."""

    search: StateSearch | None = None

    def _next_thread(
        self, running: LogicalThread | None, free: bool
    ) -> LogicalThread:
        search = self.search
        if (
            free
            and search is not None
            and search.boundary(self._outcome, self._threads, running)
        ):
            self._mark(CUT, None)
            self._halt()
            raise ExecutionAbort()
        return SerialDriver._next_thread(self, running, free)


class DeferCut(SchedulingStrategy):
    """*strategy*, except that a cut execution does not finish it: the
    harness moves the DFS past the cut node's paths itself."""

    def __init__(self, strategy: DFSStrategy) -> None:
        self.more: Callable[[], bool] = strategy.more
        self.begin: Callable[[], None] = strategy.begin
        self.decide = strategy.decide
        self._finish = strategy.finish

    def finish(self, outcome: ExecutionOutcome) -> None:
        if outcome.status != CUT:
            self._finish(outcome)
