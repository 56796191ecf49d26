"""The trie-based ObservationSet, kept verbatim as the test oracle.

Until the flat prefix table replaced it, :class:`repro.core.spec.
ObservationSet` deduplicated serial histories with a set of their token
tuples and checked determinism on a trie of tokens with one dict per
node, walking the trie again to name the call of a nondeterminism
witness.  That class lives on here, unchanged apart from its name and
the witness class it imports.  It is the slow, obviously-right side of
``test_spec_reference``: do not optimise it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.history import Profile, SerialHistory
from repro.core.spec import NondeterminismWitness


class _TrieNode:
    __slots__ = ("children", "exemplar", "terminal")

    def __init__(self) -> None:
        self.children: dict = {}
        self.exemplar: SerialHistory | None = None
        self.terminal: SerialHistory | None = None


class ReferenceObservationSet:
    """The recorded serial behaviours of one finite test (sets A and B)."""

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads
        self.full: list[SerialHistory] = []
        self.stuck: list[SerialHistory] = []
        self._seen: set[tuple] = set()
        self._full_groups: dict[Profile, list[SerialHistory]] = {}
        self._stuck_groups: dict[Profile, list[SerialHistory]] = {}
        self._root = _TrieNode()
        self._nondeterminism: NondeterminismWitness | None = None

    # -- construction ------------------------------------------------------

    def add(self, history: SerialHistory) -> bool:
        """Record one serial history; returns False if already present."""
        tokens = history.tokens()
        if tokens in self._seen:
            return False
        self._seen.add(tokens)
        profile = history.profile_for(self.n_threads)
        if history.stuck:
            self.stuck.append(history)
            self._stuck_groups.setdefault(profile, []).append(history)
        else:
            self.full.append(history)
            self._full_groups.setdefault(profile, []).append(history)
        self._insert_trie(history, tokens)
        return True

    def extend(self, histories: Iterable[SerialHistory]) -> None:
        for history in histories:
            self.add(history)

    def _insert_trie(self, history: SerialHistory, tokens: tuple) -> None:
        node = self._root
        after_call = False
        for token in tokens:
            if after_call and self._nondeterminism is None:
                self._check_branch(node, token, history)
            child = node.children.get(token)
            if child is None:
                child = _TrieNode()
                node.children[token] = child
            if child.exemplar is None:
                child.exemplar = history
            node = child
            after_call = isinstance(token, tuple) and token[0] == "c"
        node.terminal = history

    def _check_branch(self, node: _TrieNode, token: object, history: SerialHistory) -> None:
        """*node* was entered through a call; adding *token* may branch."""
        for existing_token, child in node.children.items():
            if existing_token != token:
                call = self._call_before(node)
                self._nondeterminism = NondeterminismWitness(
                    first=child.exemplar or history,
                    second=history,
                    thread=call[1],
                    invocation=call[2],
                    continuation_a=existing_token,
                    continuation_b=token,
                )
                return

    def _call_before(self, node: _TrieNode) -> tuple:
        # Walk the trie to find the call token leading into *node*; cheaper
        # to thread it through insertion, but this runs only on failure.
        stack: list[tuple[_TrieNode, tuple | None]] = [(self._root, None)]
        while stack:
            current, incoming = stack.pop()
            if current is node and incoming is not None:
                return incoming
            for token, child in current.children.items():
                stack.append((child, token if isinstance(token, tuple) else incoming))
        return ("c", -1, None)  # pragma: no cover - node is always reachable

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
        """All distinct profiles, full first (observation-file sections)."""
        seen: list[Profile] = []
        for profile in list(self._full_groups) + list(self._stuck_groups):
            if profile not in seen:
                seen.append(profile)
        return seen
