"""Sleep sets and dynamic partial-order reduction over the DFS stack.

Both strategies are drop-in replacements for
:class:`~repro.runtime.strategies.DFSStrategy` in phase 2 of the check.
They prune interleavings that are Mazurkiewicz-equivalent to already
explored ones, using the dependence oracle of
:mod:`repro.reduction.dependence`.  Because that oracle marks every
history-affecting step (operation boundaries, event-recording steps,
enabledness changes) as mutually dependent, the pruned executions differ
from a retained one only in the placement of *independent intra-operation
steps* — they would have produced an identical history, so the check's
verdict and its set of distinct histories are unchanged (see
``docs/REDUCTION.md`` for the argument).

* :class:`SleepSetStrategy` — Godefroid's sleep sets.  After exploring
  choice *c* at a node, sibling *c'* is put to sleep in the subtrees of
  choices explored later; a sleeping thread is woken (removed) as soon
  as a step dependent on its pending step executes.  Picking a sleeping
  thread would commute with the already-explored subtree, so the
  alternative is skipped and counted in :attr:`pruned`.
* :class:`DPORStrategy` — Flanagan/Godefroid dynamic partial-order
  reduction layered on the sleep sets.  Instead of trying *every*
  sibling at every node, alternatives are only explored when a *race*
  observed in some execution requires them: for each pair of conflicting
  steps not already ordered by happens-before, the later step's thread is
  added to the ``backtrack`` set of the node before the earlier step.
  Untried siblings that no race ever requested are skipped when the node
  is popped (also counted in :attr:`pruned`).

Both compose with preemption bounding exactly like the plain DFS: an
alternative that would exceed the budget is skipped by the same test the
unreduced search uses, so ``--reduction`` changes *which redundant*
schedules are visited, never the bound semantics.  Value
(nondeterminism) decisions are never pruned.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

from repro.reduction.dependence import (
    StepFootprint,
    conflicts,
    dependence_index,
    happens_before_clocks,
    step_footprints,
)
from repro.runtime.scheduler import ExecutionOutcome
from repro.runtime.strategies import DFSStrategy, _Node

__all__ = [
    "DPORStrategy",
    "SleepSetStrategy",
]


class _ReductionNode(_Node):
    """DFS stack node extended with sleep-set / DPOR bookkeeping."""

    __slots__ = ("entry_sleep", "explored", "backtrack")

    def __init__(
        self,
        kind: str,
        options: tuple,
        running: int | None,
        free: bool,
        chosen: Any,
        preemptions: int,
    ) -> None:
        super().__init__(kind, options, running, free, chosen, preemptions)
        #: thread -> pending-step footprint, asleep when this node's
        #: subtree is entered (recomputed from the ancestors each finish).
        self.entry_sleep: dict[int, StepFootprint] = {}
        #: choice -> footprint of the step it performed here (filled in
        #: as the choices are explored).
        self.explored: dict[Any, StepFootprint] = {}
        #: DPOR backtrack set: choices some observed race asks for.
        #: Ignored by the plain sleep-set strategy.
        self.backtrack: set[Any] = {chosen}


class SleepSetStrategy(DFSStrategy):
    """Exhaustive DFS with sleep-set pruning (Godefroid).

    The sleep sets are maintained *post hoc*: after each execution the
    footprints of all its steps are computed, the stack nodes learn the
    footprint of the choice they just performed, and the entry sleep set
    of every node on the path is recomputed top-down.  A node's entry
    sleep set only depends on its ancestors' state, which is frozen
    while the node is on the stack, so skipping a sleeping alternative
    (and counting it once in :attr:`pruned`) is final.
    """

    node_class = _ReductionNode
    snapshot_type = "sleep"

    def __init__(self, preemption_bound: int | None = None) -> None:
        super().__init__(preemption_bound)
        #: schedules the reduction skipped that plain (bounded) DFS
        #: would have explored.
        self.pruned = 0

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._analyze(outcome)
        super().finish(outcome)

    # -- analysis ------------------------------------------------------

    def _analyze(self, outcome: ExecutionOutcome) -> None:
        if not self._stack or not outcome.decisions:
            return
        footprints = step_footprints(outcome)
        # The k-th branching decision of the execution corresponds to
        # stack[k]: forced single-option decisions are recorded in the
        # outcome but never reach the strategy.
        branching = [
            index
            for index, decision in enumerate(outcome.decisions)
            if len(decision.options) > 1
        ]
        for depth, index in enumerate(branching[: len(self._stack)]):
            node = self._stack[depth]
            node.explored[node.chosen] = footprints[index]
        self._recompute_sleeps(outcome, footprints, branching)
        self._add_backtracks(outcome, footprints, branching)

    def _recompute_sleeps(
        self,
        outcome: ExecutionOutcome,
        footprints: list[StepFootprint],
        branching: list[int],
    ) -> None:
        if outcome.divergent:
            # Watchdog-truncated execution: its access stream is
            # incomplete, so wake everything along the path.
            for node in self._stack:
                node.entry_sleep = {}
            return
        depth_count = min(len(self._stack), len(branching))
        boundaries = branching[:depth_count] + [len(footprints)]
        sleep: dict[int, StepFootprint] = {}
        for depth in range(depth_count):
            node = self._stack[depth]
            node.entry_sleep = dict(sleep)
            if node.kind == "thread":
                # Siblings explored before the current choice go to sleep
                # in its subtree.
                for choice, footprint in node.explored.items():
                    if choice != node.chosen:
                        sleep.setdefault(choice, footprint)
            # Walk the executed steps up to (excluding) the next branching
            # decision, waking sleepers as dependent steps execute.  A
            # sleeping thread that runs itself (forced decision) is woken
            # by the same-thread conflict rule.
            for index in range(boundaries[depth], boundaries[depth + 1]):
                decision = outcome.decisions[index]
                if decision.kind == "thread":
                    # Enabledness safety net: a sleeping thread that left
                    # the enabled set is at a different program point when
                    # it comes back — its recorded footprint is stale.
                    sleep = {
                        thread: footprint
                        for thread, footprint in sleep.items()
                        if thread in decision.options
                    }
                executed = footprints[index]
                sleep = {
                    thread: footprint
                    for thread, footprint in sleep.items()
                    if not conflicts(footprint, executed)
                }

    def _add_backtracks(
        self,
        outcome: ExecutionOutcome,
        footprints: list[StepFootprint],
        branching: list[int],
    ) -> None:
        """Hook for DPOR; sleep sets explore every sibling anyway."""

    # -- backtracking --------------------------------------------------

    def _next_alternative(self, node: _Node) -> Any | None:
        budget = self._budget_left(node)
        for option in node.options:
            if option in node.tried:
                continue
            if budget is not None and node.is_preemption(option) and budget < 1:
                continue
            if not self._wants(node, option):
                continue
            if node.kind == "thread" and option in node.entry_sleep:
                # Running a sleeping thread here commutes into a subtree
                # already explored — skip for good.
                node.tried.add(option)
                self.pruned += 1
                continue
            return option
        return None

    def _wants(self, node: _Node, option: Any) -> bool:
        """Whether the search wants *option* at *node* (DPOR hook)."""
        return True

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["pruned"] = self.pruned
        snap["reduction_stack"] = [
            [
                {
                    str(thread): footprint.to_json()
                    for thread, footprint in node.entry_sleep.items()
                },
                {
                    str(choice): footprint.to_json()
                    for choice, footprint in node.explored.items()
                },
                sorted(node.backtrack),
            ]
            for node in self._stack
        ]
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "SleepSetStrategy":
        strategy = super().from_snapshot(snap)
        strategy.pruned = int(snap.get("pruned", 0))
        for node, (sleep, explored, backtrack) in zip(
            strategy._stack, snap.get("reduction_stack", [])
        ):
            node.entry_sleep = {
                int(thread): StepFootprint.from_json(footprint)
                for thread, footprint in sleep.items()
            }
            node.explored = {
                int(choice): StepFootprint.from_json(footprint)
                for choice, footprint in explored.items()
            }
            node.backtrack = set(backtrack)
        return strategy


class DPORStrategy(SleepSetStrategy):
    """Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005).

    On top of the inherited sleep sets, thread alternatives at a node are
    only explored when some observed race requests them.  After each
    execution, every pair of conflicting steps *(j, i)* on different
    threads that is not already ordered through intermediate
    happens-before edges is a race: reversing it may produce a new
    behaviour, so the thread of *i* is added to the ``backtrack`` set of
    the branching node at (or nearest before) step *j*.  When that thread
    is not schedulable there, all of the node's options are added — the
    conservative fallback of the original algorithm.

    This implementation adds a backtrack point for **every** unordered
    conflicting pair, not only the latest one per step; that is strictly
    more conservative than the original (a superset of backtrack points)
    and keeps the search complete under the replay-based DFS even though
    nodes are discarded when popped.
    """

    snapshot_type = "dpor"

    def _add_backtracks(
        self,
        outcome: ExecutionOutcome,
        footprints: list[StepFootprint],
        branching: list[int],
    ) -> None:
        clocks = happens_before_clocks(outcome, footprints)
        earlier = dependence_index(outcome).earlier
        previous_clock: dict[int, Any] = {}
        for i, footprint in enumerate(footprints):
            thread = footprint.thread
            if thread is None:
                continue
            before = previous_clock.get(thread)
            for j in earlier[i]:  # the cross-thread conflicting steps
                if footprints[j].thread is None:
                    continue
                if before is not None and clocks[j].happens_before(before):
                    # Already ordered through intermediate steps: putting
                    # *thread* first is impossible without reversing an
                    # earlier race, which adds its own backtrack point.
                    continue
                self._request(j, thread, branching)
            previous_clock[thread] = clocks[i]

        # Pending next transitions (Flanagan/Godefroid analyze these too):
        # a thread still blocked when the execution ended has a pending
        # step the trace never shows — e.g. an acquire of a lock that is
        # never released.  Its footprint is unknown, so conservatively
        # treat it as conflicting with every step not already ordered
        # before the thread's last executed step.  Without this, "the
        # blocked thread would have won the race" interleavings are never
        # requested and stuck verdict witnesses can be lost.
        for thread in outcome.pending_threads:
            before = previous_clock.get(thread)
            for j, other in enumerate(footprints):
                if other.thread is None or other.thread == thread:
                    continue
                if before is not None and clocks[j].happens_before(before):
                    continue
                self._request(j, thread, branching)

    def _request(self, index: int, thread: int, branching: list[int]) -> None:
        """Ask to run *thread* at the state before step *index*."""
        depth = bisect_right(branching, index) - 1
        depth = min(depth, len(self._stack) - 1)
        # The pre-state of a forced decision offers no choice; fall back
        # to the nearest branching thread decision at or before it.
        while depth >= 0 and self._stack[depth].kind != "thread":
            depth -= 1
        if depth < 0:
            return
        node = self._stack[depth]
        if thread not in node.options:
            node.backtrack.update(node.options)
            return
        node.backtrack.add(thread)
        # Preemption bounding: a bounded search is not prefix-closed, so
        # when running *thread* here would need a preemption the path's
        # budget no longer affords, the classical argument — "the
        # intermediate race adds its own backtrack point" — can land
        # entirely on budget-blocked nodes.  Propagate the request to the
        # ancestors until one can afford the switch (typically the
        # nearest free operation boundary), which is where the bounded
        # exhaustive DFS would reorder the threads instead.
        blocked = (
            self._budget_left(node) is not None
            and node.is_preemption(thread)
            and self._budget_left(node) < 1
        )
        while blocked and depth > 0:
            depth -= 1
            ancestor = self._stack[depth]
            if ancestor.kind != "thread" or thread not in ancestor.options:
                continue
            ancestor.backtrack.add(thread)
            budget = self._budget_left(ancestor)
            if (
                budget is None
                or not ancestor.is_preemption(thread)
                or budget >= 1
            ):
                blocked = False

    def _wants(self, node: _Node, option: Any) -> bool:
        # Value decisions are real nondeterminism — always explored.
        # Thread options stay unexplored until a race requests them; they
        # are NOT marked tried, because a later execution through this
        # node may still add them to the backtrack set.
        return node.kind != "thread" or option in node.backtrack

    def _on_pop(self, node: _Node) -> None:
        # The node is leaving the stack for good: siblings that no race
        # ever requested (and the budget would have allowed) are the
        # schedules DPOR saved over plain DFS.
        if node.kind != "thread":
            return
        budget = self._budget_left(node)
        for option in node.options:
            if option in node.tried:
                continue
            if budget is not None and node.is_preemption(option) and budget < 1:
                continue
            self.pruned += 1
