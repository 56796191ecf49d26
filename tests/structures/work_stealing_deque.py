"""Chase–Lev work-stealing deque — a genuine lock-free algorithm port.

The owner pushes and pops at the *bottom* of a circular buffer; thieves
steal from the *top* with a CAS.  Only the last remaining element is
contended, where ``PopBottom`` races the thieves with a CAS on ``top``
(the subtle heart of the algorithm).  This port is the sequentially
consistent variant (our runtime is SC, like CHESS's default mode).

Why it is here:

* it is the real design inside work-stealing schedulers (and the .NET
  ConcurrentBag's per-thread queues), exercising the checker on genuine
  lock-free code rather than lock-based ports;
* ``Steal`` *fails on interference by design*: losing the ``top`` CAS to
  another thief aborts rather than retrying (retrying forever would make
  thieves contend; real implementations abort and try another victim).
  Under strict deterministic linearizability that is a violation — under
  the Section 6 extension with
  ``InterferenceRule("Steal", interferers=("Steal",))`` it is spec.  The
  tests show both verdicts, making this the motivating example for the
  paper's "methods that may fail on interference".

**Seeded bug (pre version)**: ``PopBottom`` skips the last-element CAS
race and just takes the element.  The owner and a thief can then both
return the same value — a duplication no serial execution shows.

Owner discipline: ``PushBottom`` / ``PopBottom`` must only be called
from one thread per deque (the algorithm's contract); put them in a
single column of the finite test.
"""

from __future__ import annotations

from typing import Any

from repro.runtime import Runtime, coopc

# A test subject outside repro.structures: the coop engine compiles it
# only when registered.
coopc.register_module(__name__)

__all__ = ["WorkStealingDeque"]


class WorkStealingDeque:
    """SC Chase–Lev deque: owner at the bottom, thieves at the top."""

    def __init__(self, rt: Runtime, version: str = "beta", capacity: int = 8):
        if version not in ("beta", "pre"):
            raise ValueError(f"unknown version {version!r}")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._pre = version == "pre"
        self._capacity = capacity
        self._top = rt.atomic(0, "wsd.top")
        self._bottom = rt.volatile(0, "wsd.bottom")
        self._array = rt.shared_list([None] * capacity, "wsd.array")

    def PushBottom(self, value: Any) -> bool:
        """Owner: push at the bottom; False when the buffer is full."""
        bottom = self._bottom.get()
        top = self._top.get()
        if bottom - top >= self._capacity:
            return False
        self._array.set(bottom % self._capacity, value)
        self._bottom.set(bottom + 1)
        return True

    def PopBottom(self) -> Any:
        """Owner: pop at the bottom; "Fail" when empty.

        The final element is raced against thieves with a CAS on top.
        """
        bottom = self._bottom.get() - 1
        self._bottom.set(bottom)
        top = self._top.get()
        if bottom < top:
            # Already empty: restore and fail.
            self._bottom.set(top)
            return "Fail"
        value = self._array.get(bottom % self._capacity)
        if bottom > top:
            return value  # more than one element: no race possible
        # Last element: thieves may be taking it simultaneously.
        if self._pre:
            # BUG: advances top with a plain write instead of racing the
            # thieves with a CAS; a thief whose CAS lands in between
            # returns the same value -> duplication.  Sequentially
            # indistinguishable from the correct code.
            self._top.set(top + 1)
            self._bottom.set(top + 1)
            return value
        won = self._top.compare_and_swap(top, top + 1)
        self._bottom.set(top + 1)
        return value if won else "Fail"

    def Steal(self) -> Any:
        """Thief: take the oldest element; "Fail" when empty or on a
        lost race (abort rather than retry, as real deques do)."""
        top = self._top.get()
        bottom = self._bottom.get()
        if top >= bottom:
            return "Fail"
        value = self._array.get(top % self._capacity)
        if self._top.compare_and_swap(top, top + 1):
            return value
        return "Fail"

    def Size(self) -> int:
        """Approximate size (two independent reads; exact only when
        quiescent — do not include it in strict linearizability tests)."""
        return max(0, self._bottom.get() - self._top.get())
