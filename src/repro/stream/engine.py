"""The streaming check engine: trace lines in, online verdict out.

:class:`StreamChecker` consumes the parsed JSONL lines of one trace (in
file order, as :mod:`repro.stream.tail` delivers them) and maintains a
monitoring verdict *while the trace grows*:

* **v2 live traces** (event per line) are fed event-by-event into
  :class:`~repro.monitor.incremental.IncrementalChecker` instances — one
  per partition cell when per-key sharding is on, one for the whole
  stream otherwise.  A FAIL is known at the exact return event that
  loses linearizability; memory is bounded by the concurrency window
  (see the retirement argument in :mod:`repro.monitor.incremental`).
* **v1 history traces** (complete history per line) are checked one
  record at a time with the offline
  :func:`~repro.monitor.dispatch.monitor_history` — each line is already
  a complete history, so "streaming" means verdict-per-line, including
  the blocking justification for stuck histories.

Sharding model (P-compositionality, reusing
:meth:`~repro.monitor.models.SequentialModel.partition_key`): when
``partition`` is on, every operation is routed to its cell and cells are
checked independently — sound because for partitionable models a history
is linearizable iff each per-key projection is.  With ``shards > 1``
each engine instance additionally *owns* only the cells whose stable
hash lands on ``shard_index`` and skips the rest, so independent keys
check on independent worker processes.  An operation whose
``partition_key`` is ``None`` (a global ``Count``/``Clear``/...) makes
partitioning unsound mid-stream; :class:`PartitionUnsound` is raised and
the caller restarts from offset 0 with partitioning off — possible
precisely because the trace is a file, not an ephemeral socket.

What a line *means* — the header, a v1 record, a v2 call/return, an
indeterminate marker, the end marker — and whether the stream is
well-formed is decided by :class:`~repro.monitor.trace.TraceDecoder`,
the same decoder the offline loader uses; a malformed stream raises its
:class:`~repro.monitor.trace.TraceError` and never blends into a
verdict.  This module adds only what is the stream engine's own job:
routing operations to cells, skipping other shards' cells, retiring
cells that hit the configuration cap, and counting.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Hashable

from repro.monitor.dispatch import monitor_history
from repro.monitor.incremental import IncrementalChecker, OnlineCounterexample
from repro.monitor.models import SequentialModel
from repro.monitor.trace import LITERAL_MEMO_LIMIT, TraceDecoder
from repro.monitor.wgl import MonitorLimitError

__all__ = ["PartitionUnsound", "StreamChecker", "stable_shard"]

#: Sentinel cell for operations owned by another shard.
_FOREIGN = object()


class PartitionUnsound(Exception):
    """A global operation arrived while per-key partitioning was on."""

    def __init__(self, invocation) -> None:
        super().__init__(
            f"operation {invocation} has no partition key; per-key "
            "sharding is unsound for this stream — restart unpartitioned"
        )
        self.invocation = invocation


def stable_shard(cell: Hashable, shards: int) -> int:
    """Deterministic shard index for *cell*, stable across processes.

    ``hash()`` is salted per process for strings, so shard routing uses
    a CRC over the cell's ``repr`` — cells are invocation arguments that
    already round-trip through ``repr`` in the trace format.
    """
    return zlib.crc32(repr(cell).encode("utf-8")) % shards


@dataclass
class StreamCounters:
    """Ingest-side counters of one :class:`StreamChecker`."""

    events: int = 0  #: trace lines consumed (header and end included)
    calls: int = 0
    returns: int = 0
    indeterminate: int = 0
    skipped: int = 0  #: events owned by other shards
    histories: int = 0  #: v1 records checked
    exhausted_cells: int = 0
    cells: int = 0  #: partition cells seen by this shard

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
        shards: int = 1,
        shard_index: int = 0,
        max_configurations: int | None = None,
        monitor_engine: str = "auto",
    ) -> None:
        if partition and not model.partitionable:
            raise ValueError(
                f"model {model.name!r} is not partitionable; "
                "run with partition=False"
            )
        if not 0 <= shard_index < shards:
            raise ValueError("shard_index must be within [0, shards)")
        if shards > 1 and not partition:
            raise ValueError("sharding requires partitioning")
        self.model = model
        self.partition = partition
        self.shards = shards
        self.shard_index = shard_index
        self.max_configurations = max_configurations
        self.monitor_engine = monitor_engine
        self.counters = StreamCounters()
        self.failed: OnlineCounterexample | None = None
        self.failed_history: object | None = None  #: v1 FAIL: the History
        self.exhausted = False
        self._decoder = TraceDecoder()
        self._cells: dict[Hashable, IncrementalChecker] = {}
        #: cells dropped at the configuration cap, and what they had counted.
        self._dead_cells: dict[Hashable, _DroppedCell] = {}
        self._open_cell: dict[tuple[int, int], Hashable] = {}
        #: id(invocation) → (invocation, its cell or _FOREIGN).
        self._routes: dict[int, tuple] = {}

    # -- verdicts ---------------------------------------------------------

    @property
    def version(self) -> int | None:
        """The trace version; None until the header arrived."""
        return self._decoder.version

    @property
    def outcome(self) -> str | None:
        """The v2 end marker's outcome; None until it arrived."""
        return self._decoder.outcome

    @property
    def finalized(self) -> bool:
        return self.outcome is not None

    @property
    def verdict(self) -> str:
        """PASS / FAIL / EXHAUSTED for the stream consumed so far."""
        if self.failed is not None or self.failed_history is not None:
            return "FAIL"
        if self.exhausted:
            return "EXHAUSTED"
        return "PASS"

    def counterexample_text(self) -> str | None:
        if self.failed is not None:
            return self.failed.describe()
        if self.failed_history is not None:
            return str(self.failed_history)
        return None

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
            "finalized": self.finalized,
        }

    # -- feeding ----------------------------------------------------------

    def feed(self, obj: dict) -> bool:
        """Consume one parsed trace line; False once the verdict is FAIL."""
        self.counters.events += 1
        kind, item = self._decoder.feed(obj)
        if kind == "event":
            return self._on_event(item)
        if kind == "history":
            return self._on_history(item[0])
        if kind == "indeterminate":
            key = item[:2]
            self.counters.indeterminate += 1
            checker = self._checker(self._open_cell[key])
            if checker is not None:
                checker.on_indeterminate(*key)
        return True

    # -- v1: one complete history per line --------------------------------

    def _on_history(self, history) -> bool:
        self.counters.histories += 1
        try:
            verdict = monitor_history(
                history,
                self.model,
                engine=self.monitor_engine,
                max_configurations=self.max_configurations,
            )
        except MonitorLimitError:
            self.exhausted = True
            return True
        if not verdict.ok:
            self.failed_history = history
        return verdict.ok

    # -- v2: one live event per line ---------------------------------------

    def _cell_for(self, invocation) -> Hashable:
        """Route an invocation to its cell (or :data:`_FOREIGN`).

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
        if self.shards > 1 and stable_shard(cell, self.shards) != self.shard_index:
            cell = _FOREIGN
        if len(self._routes) >= LITERAL_MEMO_LIMIT:
            self._routes.clear()
        self._routes[id(invocation)] = (invocation, cell)
        return cell

    def _checker(self, cell: Hashable) -> IncrementalChecker | None:
        """The cell's checker; None for a foreign or given-up cell."""
        if cell is _FOREIGN or cell in self._dead_cells:
            return None
        checker = self._cells.get(cell)
        if checker is None:
            checker = IncrementalChecker(
                self.model, max_configurations=self.max_configurations
            )
            self._cells[cell] = checker
            self.counters.cells += 1
        return checker

    def _on_event(self, event: tuple) -> bool:
        is_call, thread, op_index, what = event
        key = (thread, op_index)
        if is_call:
            cell = self._open_cell[key] = self._cell_for(what)
            self.counters.calls += 1
        else:
            cell = self._open_cell.pop(key)
            self.counters.returns += 1
        if cell is _FOREIGN:
            self.counters.skipped += 1
            return True
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
