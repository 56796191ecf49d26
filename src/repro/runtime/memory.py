"""Instrumented shared-memory cells and atomics.

The .NET implementations studied by the paper synchronize with ``volatile``
fields and ``Interlocked`` (CAS/exchange) operations; the benign data races
the paper reports (Section 5.6) are exactly races on fields that *should*
have been volatile but could not be declared so in C#.  We reproduce that
memory-access vocabulary:

* :class:`VolatileCell` — a shared variable whose reads and writes are
  scheduling points (like a volatile field, every access is a
  synchronization event CHESS would instrument).
* :class:`PlainCell` — a shared variable whose accesses are *recorded* for
  the race detector but are not scheduling points (like an ordinary field;
  CHESS likewise does not preempt at data accesses).
* :class:`AtomicCell` — volatile cell with ``Interlocked``-style
  compare-and-swap, exchange, and add.
* :class:`SharedList` / :class:`SharedDict` — instrumented containers used
  as backing stores; their accesses are recorded like plain fields.

Every access appends an :class:`AccessRecord` to the current execution so
the analysis tools (happens-before race detection, conflict
serializability) can observe exactly what the model checker explored.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.runtime.coopc import coop_direct
from repro.runtime.scheduler import Scheduler

__all__ = [
    "AccessRecord",
    "AtomicCell",
    "PlainCell",
    "SharedDict",
    "SharedList",
    "VolatileCell",
]

#: Process-global instance ids, never reused.  ``location`` restarts per
#: execution so replayed factories number their cells identically (the
#: reduction layer matches footprints across executions); analyses that
#: accumulate over *distinct* instances key on ``uid`` instead.
_instance_uids = itertools.count(1)


class AccessRecord:
    """One instrumented access to shared state (for the analysis tools).

    Hand-rolled rather than a frozen dataclass: every instrumented
    memory access creates one, so construction cost is a per-access tax
    on both engines.  Treat instances as immutable.
    """

    __slots__ = (
        "stamp", "thread", "kind", "location", "name", "volatile", "uid"
    )

    def __init__(
        self,
        stamp: int,  # value of the execution step counter at access time
        thread: int,  # logical thread id performing the access
        kind: str,  # read / write / cas-ok / cas-fail / acquire / release
        location: int,  # per-execution-stable id of the cell or lock
        name: str,  # human-readable location name
        volatile: bool,  # whether the access has synchronization semantics
        uid: int = 0,  # process-unique id of the cell/lock instance
    ) -> None:
        self.stamp = stamp
        self.thread = thread
        self.kind = kind
        self.location = location
        self.name = name
        self.volatile = volatile
        self.uid = uid

    @property
    def is_write(self) -> bool:
        return self.kind in ("write", "cas-ok")

    @property
    def is_read(self) -> bool:
        return self.kind in ("read", "cas-fail")

    def __repr__(self) -> str:
        return (
            f"AccessRecord(stamp={self.stamp!r}, thread={self.thread!r}, "
            f"kind={self.kind!r}, location={self.location!r}, "
            f"name={self.name!r}, volatile={self.volatile!r}, "
            f"uid={self.uid!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AccessRecord:
            return NotImplemented
        return (
            self.stamp == other.stamp
            and self.thread == other.thread
            and self.kind == other.kind
            and self.location == other.location
            and self.name == other.name
            and self.volatile == other.volatile
            and self.uid == other.uid
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.stamp,
                self.thread,
                self.kind,
                self.location,
                self.name,
                self.volatile,
                self.uid,
            )
        )


class _Location:
    """Shared base: a named location with an id, bound to a scheduler."""

    def __init__(self, scheduler: Scheduler, name: str) -> None:
        self._scheduler = scheduler
        # Scheduler-issued, stable across executions of the same factory
        # (the id sequence restarts after every execution).
        self.location = scheduler.new_location_id()
        self.uid = next(_instance_uids)
        self.name = name

    @coop_direct  # pure bookkeeping: no scheduling point anywhere below
    def _record(self, kind: str, volatile: bool) -> None:
        sched = self._scheduler
        outcome = sched._outcome  # noqa: SLF001 - runtime-internal fast path
        if outcome is None or not sched.footprints:
            return
        outcome.record_access(
            AccessRecord(
                stamp=outcome.steps,
                thread=sched.current_thread(),
                kind=kind,
                location=self.location,
                name=self.name,
                volatile=volatile,
                uid=self.uid,
            )
        )


class PlainCell(_Location):
    """A non-volatile shared variable: monitored, but not a switch point."""

    def __init__(self, scheduler: Scheduler, value: Any = None, name: str = "cell"):
        super().__init__(scheduler, name)
        self._value = value

    def get(self) -> Any:
        self._record("read", False)
        return self._value

    def set(self, value: Any) -> None:
        self._record("write", False)
        self._value = value


class VolatileCell(_Location):
    """A volatile shared variable: every access is a scheduling point."""

    def __init__(self, scheduler: Scheduler, value: Any = None, name: str = "volatile"):
        super().__init__(scheduler, name)
        self._value = value

    def get(self) -> Any:
        self._scheduler.schedule_point()
        self._record("read", True)
        return self._value

    def set(self, value: Any) -> None:
        self._scheduler.schedule_point()
        self._record("write", True)
        self._value = value

    def peek(self) -> Any:
        """Read without a scheduling point (for predicates in block_until)."""
        return self._value


class AtomicCell(VolatileCell):
    """Volatile cell with Interlocked-style atomic read-modify-write ops."""

    def compare_and_swap(self, expected: Any, update: Any) -> bool:
        """Atomically set to *update* iff the current value == *expected*.

        Returns True on success.  The whole operation is one scheduling
        point; no other thread can run between the comparison and the
        write, exactly like ``Interlocked.CompareExchange``.
        """
        self._scheduler.schedule_point()
        if self._value == expected:
            self._record("cas-ok", volatile=True)
            self._value = update
            return True
        self._record("cas-fail", volatile=True)
        return False

    def exchange(self, update: Any) -> Any:
        """Atomically set to *update*, returning the previous value."""
        self._scheduler.schedule_point()
        self._record("cas-ok", volatile=True)
        previous = self._value
        self._value = update
        return previous

    def add(self, delta: int) -> int:
        """Atomically add *delta*, returning the **new** value."""
        self._scheduler.schedule_point()
        self._record("cas-ok", volatile=True)
        self._value += delta
        return self._value

    def increment(self) -> int:
        return self.add(1)

    def decrement(self) -> int:
        return self.add(-1)


class SharedList(_Location):
    """An instrumented list used as a backing store.

    Accesses are recorded (for race analysis) but are not scheduling
    points; callers synchronize access with locks or atomics, as the .NET
    collections do for their internal arrays.
    """

    def __init__(self, scheduler: Scheduler, items: Iterable[Any] = (), name: str = "list"):
        super().__init__(scheduler, name)
        self._items: list[Any] = list(items)

    def __len__(self) -> int:
        self._record("read", False)
        return len(self._items)

    def append(self, item: Any) -> None:
        self._record("write", False)
        self._items.append(item)

    def pop(self, index: int = -1) -> Any:
        self._record("write", False)
        return self._items.pop(index)

    def insert(self, index: int, item: Any) -> None:
        self._record("write", False)
        self._items.insert(index, item)

    def get(self, index: int) -> Any:
        self._record("read", False)
        return self._items[index]

    def set(self, index: int, item: Any) -> None:
        self._record("write", False)
        self._items[index] = item

    def remove(self, item: Any) -> None:
        self._record("write", False)
        self._items.remove(item)

    def clear(self) -> None:
        self._record("write", False)
        self._items.clear()

    def snapshot(self) -> list[Any]:
        self._record("read", False)
        return list(self._items)

    def peek_len(self) -> int:
        """Length without an access record (for block_until predicates)."""
        return len(self._items)


class SharedDict(_Location):
    """An instrumented dict used as a backing store (see SharedList)."""

    def __init__(self, scheduler: Scheduler, name: str = "dict"):
        super().__init__(scheduler, name)
        self._items: dict[Any, Any] = {}

    def __len__(self) -> int:
        self._record("read", False)
        return len(self._items)

    def __contains__(self, key: Any) -> bool:
        self._record("read", False)
        return key in self._items

    def get(self, key: Any, default: Any = None) -> Any:
        self._record("read", False)
        return self._items.get(key, default)

    def set(self, key: Any, value: Any) -> None:
        self._record("write", False)
        self._items[key] = value

    def delete(self, key: Any) -> None:
        self._record("write", False)
        del self._items[key]

    def keys(self) -> list[Any]:
        self._record("read", False)
        return sorted(self._items)

    def snapshot(self) -> dict[Any, Any]:
        self._record("read", False)
        return dict(self._items)
