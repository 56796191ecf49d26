"""The :class:`Runtime` facade handed to code under test.

A data structure written for Line-Up receives a :class:`Runtime` in its
constructor and allocates all of its shared state through it, the same way
.NET code implicitly uses the CLR primitives that CHESS instruments.  The
facade also exposes the control operations (bounded choice, yields,
current-thread identity) that implementations occasionally need.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.runtime.locks import Lock
from repro.runtime.memory import (
    AtomicCell,
    PlainCell,
    SharedDict,
    SharedList,
    VolatileCell,
)
from repro.runtime.scheduler import Scheduler

__all__ = ["Runtime"]


class Runtime:
    """Factory for instrumented primitives, bound to one scheduler."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler

    # -- allocation ----------------------------------------------------

    def plain(self, value: Any = None, name: str = "cell") -> PlainCell:
        """A monitored, non-volatile shared variable."""
        return PlainCell(self.scheduler, value, name)

    def volatile(self, value: Any = None, name: str = "volatile") -> VolatileCell:
        """A volatile shared variable (each access is a scheduling point)."""
        return VolatileCell(self.scheduler, value, name)

    def atomic(self, value: Any = None, name: str = "atomic") -> AtomicCell:
        """A volatile cell with CAS / exchange / atomic add."""
        return AtomicCell(self.scheduler, value, name)

    def lock(self, name: str = "lock") -> Lock:
        """A non-reentrant instrumented mutex."""
        return Lock(self.scheduler, name)

    def shared_list(self, items: Iterable[Any] = (), name: str = "list") -> SharedList:
        """An instrumented list backing store."""
        return SharedList(self.scheduler, items, name)

    def shared_dict(self, name: str = "dict") -> SharedDict:
        """An instrumented dict backing store."""
        return SharedDict(self.scheduler, name)

    # -- control -------------------------------------------------------

    def choose(self, n: int) -> int:
        """Bounded nondeterministic choice resolved by the explorer."""
        return self.scheduler.choose(n)

    def choose_bool(self) -> bool:
        """Nondeterministic boolean (e.g. 'did the timeout fire?')."""
        return self.scheduler.choose(2) == 1

    def yield_point(self) -> None:
        """Spin-wait hint: give the scheduler a chance to switch."""
        self.scheduler.yield_point()

    def spin_wait(self) -> None:
        """Fair spin backoff: disabled until another thread progresses."""
        self.scheduler.spin_wait()

    def spin_until(self, predicate: Callable[[], bool]) -> None:
        """Spin (fairly) until *predicate* holds.

        The spin-loop flavour of :meth:`block_until`: semantically
        equivalent, but models implementations that busy-wait instead of
        parking, exercising the fair scheduler.
        """
        while not predicate():
            self.scheduler.spin_wait()

    def block_until(self, predicate: Callable[[], bool]) -> None:
        """Block the calling logical thread until *predicate* holds."""
        self.scheduler.block_until(predicate)

    def current_thread(self) -> int:
        """Logical id of the calling thread (0-based)."""
        return self.scheduler.current_thread()
