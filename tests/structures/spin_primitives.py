"""Spin-based primitives — the fair-scheduling workout (paper Section 4).

The paper notes that CHESS's *fair* stateless search matters "because
many of the concurrent data types use spin-loops for synchronization":
an unfair exhaustive scheduler can keep re-running the spinner and never
let the thread it is waiting for proceed.  These classes synchronize by
busy-waiting through :meth:`Runtime.spin_wait` / :meth:`spin_until`, so
exploring them terminates only because the scheduler treats a spinning
thread as disabled until someone else progresses.

* :class:`SpinLock` — test-and-set lock with spin backoff.
* :class:`SpinningCounter` — a counter guarded by the spin lock, with a
  semaphore-style ``dec`` that spins at zero.  Functionally equivalent
  to :class:`repro.structures.counters.Counter`, so the two can be
  differentially checked against each other's specifications.
* :class:`TicketLock` — a fair FIFO ticket lock; ``CurrentTicket`` and
  ``NowServing`` make the handout order observable.
"""

from __future__ import annotations

from repro.runtime import Runtime, coopc

# A test subject outside repro.structures: the coop engine compiles it
# only when registered.
coopc.register_module(__name__)

__all__ = ["SpinLock", "SpinningCounter", "TicketLock"]


class SpinLock:
    """Test-and-set spin lock built on CAS plus fair spin backoff."""

    def __init__(self, rt: Runtime, name: str = "spinlock") -> None:
        self._rt = rt
        self._held = rt.atomic(False, f"{name}.held")

    def acquire(self) -> None:
        while not self._held.compare_and_swap(False, True):
            self._rt.spin_wait()

    def release(self) -> None:
        self._held.set(False)

    def __enter__(self) -> "SpinLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class SpinningCounter:
    """The Fig. 3 counter, implemented with spin loops throughout."""

    def __init__(self, rt: Runtime, initial: int = 0) -> None:
        self._rt = rt
        self._lock = SpinLock(rt, "spincounter.lock")
        self._count = rt.volatile(initial, "spincounter.count")

    def inc(self) -> None:
        with self._lock:
            self._count.set(self._count.get() + 1)

    def dec(self) -> None:
        """Decrement; spins while the count is zero (semaphore-like)."""
        while True:
            self._rt.spin_until(lambda: self._count.peek() > 0)
            with self._lock:
                if self._count.get() > 0:
                    self._count.set(self._count.get() - 1)
                    return

    def get(self) -> int:
        with self._lock:
            return self._count.get()

    def set_value(self, value: int) -> None:
        with self._lock:
            self._count.set(value)


class TicketLock:
    """FIFO ticket lock; exposes its counters as checkable operations."""

    def __init__(self, rt: Runtime) -> None:
        self._rt = rt
        self._next_ticket = rt.atomic(0, "ticket.next")
        self._now_serving = rt.volatile(0, "ticket.serving")

    def Acquire(self) -> int:
        """Take a ticket and spin until served; returns the ticket."""
        ticket = self._next_ticket.add(1) - 1
        self._rt.spin_until(lambda: self._now_serving.peek() == ticket)
        return ticket

    def Release(self) -> None:
        self._now_serving.set(self._now_serving.get() + 1)

    def AcquireRelease(self) -> int:
        """One full critical section; returns the ticket that was served."""
        ticket = self.Acquire()
        self.Release()
        return ticket

    def CurrentTicket(self) -> int:
        return self._next_ticket.get()

    def NowServing(self) -> int:
        return self._now_serving.get()
