"""The generation corpus: coverage-earning tests and their energy.

A test is admitted exactly when executing it reached at least one
Mazurkiewicz equivalence class not yet in the campaign's global
:class:`~repro.reduction.fingerprint.FingerprintSet` — coverage in the
fuzzing sense, with the PR-5 execution fingerprints as the signal.  Each
entry remembers how productive it has been (classes it discovered on
admission, classes its mutants discovered since) and when it last earned
any, and :meth:`Corpus.select` draws mutation parents with probability
proportional to that *energy*: recently-productive entries are favoured,
stale ones decay but never reach zero, so the scheduler keeps a tail of
exploration on old entries.

Time is measured in candidate indexes, not wall-clock — the energy of a
corpus, like everything else in this subsystem, must be a deterministic
function of the campaign history so resumed runs replay identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.checkpoint import CheckpointError, test_from_dict, test_to_dict
from repro.core.testcase import FiniteTest

__all__ = ["Corpus", "CorpusEntry"]

#: Energy decay per candidate since an entry last found a new class.
_DECAY = 0.05
#: Weight of classes found by an entry's mutants relative to its own.
_CHILD_WEIGHT = 0.5


@dataclass
class CorpusEntry:
    """One admitted test and its productivity record."""

    test: FiniteTest
    new_classes: int = 0  #: classes this test's own execution discovered
    added_at: int = 0  #: candidate index at admission
    last_new: int = 0  #: candidate index of the latest discovery it caused
    children_new: int = 0  #: classes discovered by mutants of this entry

    def energy(self, now: int) -> float:
        """Scheduling weight at candidate index *now* (always > 0)."""
        score = 1.0 + self.new_classes + _CHILD_WEIGHT * self.children_new
        age = max(0, now - self.last_new)
        return score / (1.0 + _DECAY * age)

    def to_dict(self) -> dict:
        return {
            "test": test_to_dict(self.test),
            "new_classes": self.new_classes,
            "added_at": self.added_at,
            "last_new": self.last_new,
            "children_new": self.children_new,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        return cls(
            test=test_from_dict(data["test"]),
            new_classes=int(data.get("new_classes", 0)),
            added_at=int(data.get("added_at", 0)),
            last_new=int(data.get("last_new", 0)),
            children_new=int(data.get("children_new", 0)),
        )


class Corpus:
    """An ordered list of corpus entries with energy-weighted selection."""

    def __init__(self, entries: Sequence[CorpusEntry] = ()) -> None:
        self.entries: list[CorpusEntry] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def tests(self) -> list[FiniteTest]:
        return [entry.test for entry in self.entries]

    def add(self, test: FiniteTest, new_classes: int, now: int) -> int:
        """Admit *test* (which discovered *new_classes*); return its position."""
        self.entries.append(
            CorpusEntry(
                test=test,
                new_classes=new_classes,
                added_at=now,
                last_new=now,
            )
        )
        return len(self.entries) - 1

    def credit(self, position: int, new_classes: int, now: int) -> None:
        """Credit entry *position* for a mutant that found *new_classes*."""
        entry = self.entries[position]
        entry.children_new += new_classes
        entry.last_new = now

    def select(self, rng: random.Random, now: int) -> int:
        """Energy-weighted draw of a mutation parent's position.

        Iterates entries in admission order (a list, never a raw set —
        set order is process-dependent for strings) so the draw is a
        deterministic function of *rng* and the corpus history.
        """
        if not self.entries:
            raise ValueError("cannot select from an empty corpus")
        weights = [entry.energy(now) for entry in self.entries]
        target = rng.random() * sum(weights)
        running = 0.0
        for position, weight in enumerate(weights):
            running += weight
            if target < running:
                return position
        return len(self.entries) - 1

    def to_state(self) -> list[dict]:
        """JSON form for the ``kind="generate"`` checkpoint."""
        return [entry.to_dict() for entry in self.entries]

    @classmethod
    def from_state(cls, data: object) -> "Corpus":
        """Restore :meth:`to_state`; corrupt input raises CheckpointError."""
        if data is None:
            return cls()
        try:
            if isinstance(data, (str, bytes, dict)):
                raise TypeError(
                    f"corpus state must be a list, not {type(data).__name__}"
                )
            return cls([CorpusEntry.from_dict(entry) for entry in data])
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"malformed generate corpus: {exc}") from exc
