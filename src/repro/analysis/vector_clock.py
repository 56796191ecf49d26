"""Vector clocks for the happens-before race detector.

A vector clock maps thread ids to logical timestamps.  ``VC1 <= VC2``
means every component of VC1 is at most the corresponding component of
VC2 — the happens-before comparison used to decide whether two memory
accesses are ordered.
"""

from __future__ import annotations

__all__ = ["VectorClock"]


class VectorClock:
    """An immutable-style vector clock over integer thread ids."""

    __slots__ = ("_clock",)

    def __init__(self, clock: dict[int, int] | None = None) -> None:
        self._clock: dict[int, int] = dict(clock) if clock else {}

    def get(self, thread: int) -> int:
        return self._clock.get(thread, 0)

    def copy(self) -> "VectorClock":
        return VectorClock(self._clock)

    def tick(self, thread: int) -> "VectorClock":
        """Return a copy with *thread*'s component incremented."""
        out = dict(self._clock)
        out[thread] = out.get(thread, 0) + 1
        return VectorClock(out)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum (the merge on synchronization edges)."""
        out = dict(self._clock)
        for thread, stamp in other._clock.items():
            if stamp > out.get(thread, 0):
                out[thread] = stamp
        return VectorClock(out)

    def happens_before(self, other: "VectorClock") -> bool:
        """self ≤ other componentwise (and they may be equal)."""
        return all(stamp <= other.get(t) for t, stamp in self._clock.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        threads = set(self._clock) | set(other._clock)
        return all(self.get(t) == other.get(t) for t in threads)

    def __hash__(self) -> int:
        return hash(tuple(sorted((t, s) for t, s in self._clock.items() if s)))
