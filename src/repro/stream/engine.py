"""The streaming check engine: trace lines in, online verdict out.

:class:`StreamChecker` consumes the parsed JSONL lines of one trace, in
file order as :mod:`repro.stream.tail` delivers them, and maintains a
monitoring verdict *while the trace grows*: events are fed into
:class:`~repro.monitor.incremental.IncrementalChecker` instances — one
per partition cell when per-key partitioning is on, one for the whole
stream otherwise.  A FAIL is known at the exact return
event that loses linearizability; memory is bounded by the concurrency
window (see the retirement argument in :mod:`repro.monitor.incremental`).
A dump whose end marker says the execution ended ``stuck`` or
``divergent`` is judged there: its pending operations were observed to
block, so each needs a blocking justification (Definition 2), which the
end-of-history step gives from the empty bucket of its cell
(:meth:`~repro.monitor.incremental.IncrementalChecker.justify`).  A
FAIL found before that marker stands: a history with no linearization
under the open semantics has none under the stuck semantics either.

Partitioning (P-compositionality, reusing
:meth:`~repro.monitor.models.SequentialModel.partition_key`): when
``partition`` is on, every operation is routed to its cell and cells are
checked independently — sound because for partitionable models a history
is linearizable iff each per-key projection is.  An operation whose
``partition_key`` is ``None`` (a global ``Count``/``Clear``/...) makes
partitioning unsound mid-stream; :class:`PartitionUnsound` is raised and
the caller restarts from offset 0 with partitioning off — possible
precisely because the trace is a file, not an ephemeral socket.

What a line *means* — the header, a call/return, an indeterminate
marker, the end marker — and whether the stream is well-formed is
decided by :class:`~repro.monitor.trace.TraceDecoder`,
the same decoder the offline loader uses; a malformed stream raises its
:class:`~repro.monitor.trace.TraceError` and never blends into a
verdict.  This module adds only what is the stream engine's own job:
routing operations to cells, retiring cells that hit the configuration
cap, and counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable

from repro.monitor.incremental import (
    IncrementalChecker,
    MonitorLimitError,
    OnlineCounterexample,
)
from repro.monitor.models import SequentialModel
from repro.monitor.trace import LITERAL_MEMO_LIMIT, STUCK_OUTCOMES, TraceDecoder

__all__ = ["PartitionUnsound", "StreamChecker"]


class PartitionUnsound(Exception):
    """A global operation arrived while per-key partitioning was on."""

    def __init__(self, invocation) -> None:
        super().__init__(
            f"operation {invocation} has no partition key; per-key "
            "partitioning is unsound for this stream — restart unpartitioned"
        )
        self.invocation = invocation


@dataclass
class StreamCounters:
    """Ingest-side counters of one :class:`StreamChecker`."""

    events: int = 0  #: trace lines consumed (header and end included)
    calls: int = 0
    returns: int = 0
    indeterminate: int = 0
    exhausted_cells: int = 0
    cells: int = 0  #: partition cells seen

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class _DroppedCell:
    """The counters a cell leaves behind when it is dropped at the cap."""

    retired: int
    configurations: int
    max_frontier: int
    max_retirement_lag: int


class StreamChecker:
    """Feed one trace's lines in order; read the live verdict anytime."""

    def __init__(
        self,
        model: SequentialModel,
        *,
        partition: bool = False,
        max_configurations: int | None = None,
    ) -> None:
        if partition and not model.partitionable:
            raise ValueError(
                f"model {model.name!r} is not partitionable; "
                "run with partition=False"
            )
        self.model = model
        self.partition = partition
        self.max_configurations = max_configurations
        self.counters = StreamCounters()
        self.failed: OnlineCounterexample | None = None
        self.exhausted = False
        self._decoder = TraceDecoder()
        self._cells: dict[Hashable, IncrementalChecker] = {}
        #: cells dropped at the configuration cap, and what they had counted.
        self._dead_cells: dict[Hashable, _DroppedCell] = {}
        self._open_cell: dict[tuple[int, int], Hashable] = {}
        #: id(invocation) → (invocation, its cell).
        self._routes: dict[int, tuple] = {}

    # -- verdicts ---------------------------------------------------------

    @property
    def outcome(self) -> str | None:
        """The end marker's outcome; None until it arrived."""
        return self._decoder.outcome

    @property
    def finalized(self) -> bool:
        return self.outcome is not None

    @property
    def verdict(self) -> str:
        """PASS / FAIL / EXHAUSTED for the stream consumed so far."""
        if self.failed is not None:
            return "FAIL"
        if self.exhausted:
            return "EXHAUSTED"
        return "PASS"

    # -- observability ----------------------------------------------------

    def frontier_size(self) -> int:
        return sum(c.frontier_size for c in self._cells.values())

    def live_configs(self) -> int:
        return sum(c.live_configs for c in self._cells.values())

    def _counted(self):
        """Live checkers, then what the dropped ones left behind."""
        return chain(self._cells.values(), self._dead_cells.values())

    def retired(self) -> int:
        return sum(c.retired for c in self._counted())

    def configurations(self) -> int:
        return sum(c.configurations for c in self._counted())

    def max_frontier(self) -> int:
        return max((c.max_frontier for c in self._counted()), default=0)

    def max_retirement_lag(self) -> int:
        return max((c.max_retirement_lag for c in self._counted()), default=0)

    def stats(self) -> dict:
        """One JSON-able snapshot of everything observable."""
        return {
            **self.counters.to_dict(),
            "verdict": self.verdict,
            "frontier": self.frontier_size(),
            "live_configs": self.live_configs(),
            "retired": self.retired(),
            "configurations": self.configurations(),
            "max_frontier": self.max_frontier(),
            "max_retirement_lag": self.max_retirement_lag(),
            # open operations a witness of the stream so far made take effect
            "taken": sum(len(c.taken()) for c in self._cells.values()),
            "finalized": self.finalized,
        }

    # -- feeding ----------------------------------------------------------

    def feed(self, obj: dict) -> bool:
        """Consume one parsed trace line; False once the verdict is FAIL."""
        self.counters.events += 1
        kind, item = self._decoder.feed(obj)
        if kind == "event":
            return self.on_event(item)
        if kind == "indeterminate":
            key = item[:2]
            self.counters.indeterminate += 1
            checker = self._checker(self._open_cell[key])
            if checker is not None:
                checker.on_indeterminate(*key)
        elif kind == "end" and item in STUCK_OUTCOMES:
            return self.justify_pending()
        return True

    def justify_pending(self) -> bool:
        """The end of a stuck history: judge its pending operations, in
        call order; False at the first unjustified one.

        ``H[e]`` keeps the completed operations of every cell, so ``e``
        also needs the other cells to linearize with their pending
        operations left out.  It needs no check here: a cell whose
        returned operations do not has an empty empty bucket, so its own
        pending operations are unjustified and the verdict is FAIL
        either way.  A pending operation of a dropped cell stays
        EXHAUSTED.
        """
        for key, cell in self._open_cell.items():
            checker = self._checker(cell)
            if checker is not None and not checker.justify(key):
                self.failed = checker.failed
                return False
        return True

    def _cell_for(self, invocation) -> Hashable:
        """Route an invocation to its cell.

        The decoder hands out one object per distinct invocation text, so
        the route is remembered per object: by ``id``, next to the object
        itself, which keeps that ``id`` from naming anything else while
        the entry lives.
        """
        if not self.partition:
            return None
        route = self._routes.get(id(invocation))
        if route is not None:
            return route[1]
        cell = self.model.partition_key(invocation)
        if cell is None:
            raise PartitionUnsound(invocation)
        if len(self._routes) >= LITERAL_MEMO_LIMIT:
            self._routes.clear()
        self._routes[id(invocation)] = (invocation, cell)
        return cell

    def _checker(self, cell: Hashable) -> IncrementalChecker | None:
        """The cell's checker; None for a given-up cell."""
        if cell in self._dead_cells:
            return None
        checker = self._cells.get(cell)
        if checker is None:
            checker = IncrementalChecker(
                self.model, max_configurations=self.max_configurations
            )
            self._cells[cell] = checker
            self.counters.cells += 1
        return checker

    def on_event(self, event: tuple) -> bool:
        """Consume one decoded event, ``(is_call, thread, op_index,
        invocation or response)``; False once the verdict is FAIL."""
        is_call, thread, op_index, what = event
        key = (thread, op_index)
        if is_call:
            cell = self._open_cell[key] = self._cell_for(what)
            self.counters.calls += 1
        else:
            cell = self._open_cell.pop(key)
            self.counters.returns += 1
        checker = self._checker(cell)
        if checker is None:
            return True  # cell gave up (EXHAUSTED); events still validated
        if is_call:
            checker.on_call(thread, op_index, what)
            return True
        try:
            ok = checker.on_return(thread, op_index, what)
        except MonitorLimitError:
            self.exhausted = True
            self.counters.exhausted_cells += 1
            # The checker goes (its configurations are the memory at
            # stake); what it counted stays in the totals.
            del self._cells[cell]
            self._dead_cells[cell] = _DroppedCell(
                checker.retired,
                checker.configurations,
                checker.max_frontier,
                checker.max_retirement_lag,
            )
            return True
        if not ok:
            self.failed = checker.failed
        return ok
