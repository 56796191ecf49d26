"""The shard work-list strategy: seeded subtrees explored back to back.

A shard is a set of decision-prefix subtrees (see
:mod:`repro.swarm.partition`).  :class:`ShardStrategy` wraps the inner
seeded strategies into one :class:`~repro.runtime.SchedulingStrategy`
so the ordinary phase-2 loop (:func:`repro.core.checker
.check_against_observations`) drives a whole shard without knowing it
is sharded, and one snapshot round-trips the shard's entire remaining
frontier through the standard checkpoint machinery — which is what
makes leases, requeues, and ``lineup resume`` of a quarantined shard
possible.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.runtime.scheduler import ExecutionOutcome, SchedulingStrategy

__all__ = ["ShardStrategy"]


class ShardStrategy(SchedulingStrategy):
    """Explore a queue of inner strategy snapshots, one subtree at a time.

    ``executions`` and ``pruned`` are cumulative across finished
    subtrees plus the in-flight one, so a worker can meter a lease by
    deltas regardless of how many subtree boundaries the lease crossed.
    """

    snapshot_type = "shard"

    def __init__(self, pending: Iterable[dict] = ()) -> None:
        self._pending: deque[dict] = deque(pending)
        self._current: SchedulingStrategy | None = None
        self._executions_done = 0
        self._pruned_done = 0

    @property
    def pruned(self) -> int:
        live = getattr(self._current, "pruned", 0) if self._current else 0
        return self._pruned_done + live

    def more(self) -> bool:
        from repro.runtime.strategies import strategy_from_snapshot

        while True:
            if self._current is not None:
                if self._current.more():
                    return True
                # Fold the finished subtree's counters before moving on.
                self._executions_done += getattr(
                    self._current, "executions", 0
                )
                self._pruned_done += getattr(self._current, "pruned", 0)
                self._current = None
            if not self._pending:
                return False
            self._current = strategy_from_snapshot(self._pending.popleft())

    def begin(self) -> None:
        assert self._current is not None, "begin() without more()"
        self._current.begin()

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        assert self._current is not None
        return self._current.decide(kind, options, running, free)

    def finish(self, outcome: ExecutionOutcome) -> None:
        assert self._current is not None
        self._current.finish(outcome)

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "type": self.snapshot_type,
            "executions": self._executions_done,
            "pruned": self._pruned_done,
            "current": (
                self._current.snapshot() if self._current is not None else None
            ),
            "pending": list(self._pending),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ShardStrategy":
        from repro.runtime.strategies import strategy_from_snapshot

        strategy = cls(pending=snap.get("pending") or ())
        strategy._executions_done = int(snap.get("executions", 0))
        strategy._pruned_done = int(snap.get("pruned", 0))
        current = snap.get("current")
        if current is not None:
            strategy._current = strategy_from_snapshot(current)
        return strategy
