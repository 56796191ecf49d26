"""Synthesized sequential specifications (paper Sections 2.2–2.4, 3.3).

Line-Up never asks the user for a specification.  Phase 1 of the check
*synthesizes* one by recording every serial execution of the finite test:

* the set **A** of full serial histories (``M̂s(X, m)`` in the paper), and
* the set **B** of stuck serial histories (``M̄s(X, m)``), which capture
  where the implementation is *allowed* to block.

:class:`ObservationSet` holds both, indexed by :data:`Profile` so that the
witness search only inspects candidates with matching per-thread behaviour
(the grouping of the paper's observation-file format, Fig. 7).

It also implements the determinism gate of ``Check`` (Fig. 5, line 4):
the specification is *deterministic* iff no two recorded serial histories
share a longest common prefix that ends in a call — equivalently, every
token prefix of the recorded histories that ends in a call token has at
most one continuation (the response, or ``#``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.history import Profile, SerialHistory

__all__ = ["NondeterminismWitness", "ObservationSet"]


@dataclass(frozen=True)
class NondeterminismWitness:
    """Two serial histories proving the specification is nondeterministic.

    Their longest common prefix ends with the call of ``invocation`` by
    ``thread``; ``first`` continues with one behaviour and ``second`` with
    another (a different response, or one blocks while the other returns).
    """

    first: SerialHistory
    second: SerialHistory
    thread: int
    invocation: object
    continuation_a: object
    continuation_b: object

    def describe(self) -> str:
        return (
            f"after the same serial prefix, {self.invocation} on thread "
            f"{self.thread} behaved as {self._fmt(self.continuation_a)} in one "
            f"execution and as {self._fmt(self.continuation_b)} in another"
        )

    @staticmethod
    def _fmt(token: object) -> str:
        if token == "#":
            return "blocked (#)"
        return str(token[2]) if isinstance(token, tuple) else str(token)


class ObservationSet:
    """The recorded serial behaviours of one finite test (sets A and B).

    The token sequences of the recorded histories are stored as one flat
    prefix table: prefix id 0 is the empty prefix, and ``(prefix id,
    token)`` maps to the id of that prefix extended by *token*.  Per
    prefix id it keeps the first history recorded through it and whether
    some history ends there.  Tokens are compared by ``==``, as the
    determinism definition compares events.
    """

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads
        self.full: list[SerialHistory] = []
        self.stuck: list[SerialHistory] = []
        self._full_groups: dict[Profile, list[SerialHistory]] = {}
        self._stuck_groups: dict[Profile, list[SerialHistory]] = {}
        self._next: dict[tuple[int, object], int] = {}
        self._first: list[SerialHistory | None] = [None]
        self._ends = bytearray(1)
        self._nondeterminism: NondeterminismWitness | None = None

    # -- construction ------------------------------------------------------

    def add(self, history: SerialHistory) -> bool:
        """Record one serial history; returns False if already present."""
        tokens = history.tokens()
        table = self._next
        prefix = depth = 0
        for token in tokens:
            extended = table.get((prefix, token))
            if extended is None:
                break
            prefix = extended
            depth += 1
        if depth < len(tokens):
            # The longest common prefix with every recorded history ends
            # here; ending in a call, two histories disagree after it.
            if depth and self._nondeterminism is None and tokens[depth - 1][0] == "c":
                self._nondeterminism = self._witness(history, tokens, depth, prefix)
            first = self._first
            for token in tokens[depth:]:
                table[prefix, token] = prefix = len(first)
                first.append(history)
            self._ends.extend(bytes(len(tokens) - depth))
        elif self._ends[prefix]:
            return False
        self._ends[prefix] = 1
        profile = history.profile_for(self.n_threads)
        if history.stuck:
            self.stuck.append(history)
            self._stuck_groups.setdefault(profile, []).append(history)
        else:
            self.full.append(history)
            self._full_groups.setdefault(profile, []).append(history)
        return True

    def _witness(
        self, history: SerialHistory, tokens: tuple, depth: int, prefix: int
    ) -> NondeterminismWitness:
        """*history* leaves the table after the call ending *prefix*."""
        first = self._first[prefix]
        assert first is not None
        theirs = first.tokens()
        call = theirs[depth - 1]
        return NondeterminismWitness(
            first=first,
            second=history,
            thread=call[1],
            invocation=call[2],
            continuation_a=theirs[depth],
            continuation_b=tokens[depth],
        )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.full) + len(self.stuck)

    def __iter__(self) -> Iterator[SerialHistory]:
        yield from self.full
        yield from self.stuck

    @property
    def is_deterministic(self) -> bool:
        """Whether A ∪ B could come from a deterministic specification."""
        return self._nondeterminism is None

    @property
    def nondeterminism(self) -> NondeterminismWitness | None:
        return self._nondeterminism

    def full_candidates(self, profile: Profile) -> list[SerialHistory]:
        """Full serial histories whose profile matches (witness candidates)."""
        return self._full_groups.get(profile, [])

    def stuck_candidates(self, profile: Profile) -> list[SerialHistory]:
        """Stuck serial histories whose profile matches."""
        return self._stuck_groups.get(profile, [])

    def profiles(self) -> list[Profile]:
        """All distinct profiles, full first (observation-file sections).

        No profile is in both groups: a stuck one has a pending entry.
        """
        return [*self._full_groups, *self._stuck_groups]
