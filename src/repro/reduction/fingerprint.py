"""Execution fingerprints: canonical happens-before hashes.

Two executions are Mazurkiewicz-equivalent (one is a reordering of the
other's independent steps) exactly when they agree on

* the per-thread projection of their steps (program order), and
* the orientation of every *dependent* step pair (which of the two
  conflicting steps came first).

:func:`execution_fingerprint` hashes exactly those two ingredients, so
equivalent executions — even ones reached through different decision
sequences — collapse to one digest.  The checker counts the distinct
digests it saw (``equivalence_classes`` in :class:`CheckResult`), which
measures how much redundancy a schedule-space exploration contains:
``schedules_explored / equivalence_classes`` is the average number of
times each genuinely distinct behaviour was re-examined.

Phase 1 is never fingerprinted: it must stay *complete* (Theorem 5), so
the harness only skips serial executions whose status and event stream
are identical to one it already saw — never equivalence classes.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.core.events import typed
from repro.reduction.dependence import dependence_index
from repro.runtime.scheduler import ExecutionOutcome

__all__ = [
    "FingerprintError",
    "FingerprintSet",
    "execution_fingerprint",
]


class FingerprintError(Exception):
    """A fingerprint snapshot could not be parsed or validated.

    The named-error mirror of :class:`repro.core.checkpoint.CheckpointError`:
    a corrupt digest list restored from a checkpoint or corpus file raises
    this instead of whatever ``TypeError``/``AttributeError`` the corruption
    happens to trip, so callers can catch one exception at the load site.
    """


#: Digests are truncated sha256 hexdigests (see :func:`_digest`).
_DIGEST_CHARS = frozenset("0123456789abcdef")


def _validate_digest(digest: object) -> str:
    if not isinstance(digest, str):
        raise FingerprintError(
            f"fingerprint digests must be strings, got {type(digest).__name__}"
        )
    if not digest or len(digest) > 64 or not _DIGEST_CHARS.issuperset(digest):
        raise FingerprintError(f"malformed fingerprint digest {digest!r}")
    return digest


def _digest(parts: list[str]) -> str:
    """sha256 over the parts, each followed by a NUL, truncated to 32 hex."""
    data = "\x00".join((*parts, ""))
    return hashlib.sha256(data.encode("utf-8", "backslashreplace")).hexdigest()[:32]


#: ``repr`` of the harness events digested so far, see :func:`_event_repr`:
#: by typed value, and in front of that by identity.
_EVENT_REPRS: dict[tuple, str] = {}
_EVENT_TEXTS: dict[int, tuple[Any, str]] = {}
_EVENT_REPRS_LIMIT = 4096


def _event_repr(event: Any) -> str:
    """``repr(event)``, memoised for harness events with plain payloads.

    Events are frozen, hashable dataclasses and a test has a few dozen
    distinct ones, each recorded again by every execution.  The harness
    records the same *object* every time (its per-test event table), so
    the first memo is keyed by ``id()`` and a hit is checked against the
    event the entry holds.  Behind it sits the memo by value, for equal
    events that are not one object.
    There the event alone is not a safe key: ``Response('ok', 1) ==
    Response('ok', True)`` and they hash alike but ``repr`` differently,
    so the argument and result values enter the key :func:`typed`.
    Anything else — another payload class, an unhashable or non-plain
    value — is ``repr``-ed directly and enters neither memo.
    """
    known = _EVENT_TEXTS.get(id(event))
    if known is not None and known[0] is event:
        return known[1]
    try:
        invocation, response = event.invocation, event.response
        key = (
            event,
            None if invocation is None else typed(invocation.args),
            None if response is None else typed(response.value),
        )
        text = _EVENT_REPRS.get(key)
    except (AttributeError, TypeError):
        return repr(event)
    if text is None:
        if len(_EVENT_REPRS) >= _EVENT_REPRS_LIMIT:
            _EVENT_REPRS.clear()
        text = _EVENT_REPRS[key] = repr(event)
    if len(_EVENT_TEXTS) >= _EVENT_REPRS_LIMIT:
        _EVENT_TEXTS.clear()
    _EVENT_TEXTS[id(event)] = (event, text)
    return text


def _csv(locations: set[int]) -> str:
    """The location ids in ascending order, comma-separated."""
    if len(locations) == 1:  # most steps touch one location
        for only in locations:
            return str(only)
    return ",".join(map(str, sorted(locations))) if locations else ""


def execution_fingerprint(outcome: ExecutionOutcome) -> str:
    """Canonical digest of one execution's Mazurkiewicz trace class.

    Built from the per-thread projections of the steps (each step a token
    of its value choice, read and write sets, recorded events and access
    kinds) plus the orientation of every cross-thread conflicting step
    pair, read off the outcome's
    :class:`~repro.reduction.dependence.DependenceIndex`.
    The status and pending set are folded in so a stuck execution can
    never collide with a completed one.

    The digest is persisted (check checkpoints, swarm shard states,
    ``generate`` corpora) and resumed runs union old digests with new
    ones, so its bytes must never change: same parts, same order, same
    truncated sha256.  ``tests/reduction/test_fingerprint_reference.py``
    holds the original quadratic implementation as the oracle.
    """
    index = dependence_index(outcome)
    threads = index.threads
    n = len(threads)
    events = [""] * n  # per step: the reprs of its events, ``;``-joined
    for event, segment in zip(outcome.events, outcome.event_segments):
        if 0 <= segment < n:
            text = _event_repr(event)
            before = events[segment]
            events[segment] = f"{before};{text}" if before else text
    parts: list[str] = [
        outcome.status,
        repr(outcome.stuck_kind),
        repr(outcome.pending_threads),
    ]

    # Per-thread projections: the sequence of step tokens each thread
    # performed, independent of global interleaving.  Steps are named by
    # per-thread counters (canonical across interleavings; global indexes
    # are not).
    by_thread: dict[int, list[str]] = {}
    step_name: list[str] = []
    for thread, decision, read, written, event_text, access_text in zip(
        threads, outcome.decisions, index.reads, index.writes, events, index.accesses
    ):
        if thread is None:
            step_name.append("?")
            continue
        steps = by_thread.get(thread)
        if steps is None:
            steps = by_thread[thread] = []
        value = repr(decision.chosen) if decision.kind == "value" else ""
        steps.append(
            f"{value}|{_csv(read)}|{_csv(written)}|{event_text}|{access_text}"
        )
        step_name.append(f"{thread}.{len(steps)}")
    for thread in sorted(by_thread):
        parts.append(f"T{thread}")
        parts.extend(by_thread[thread])

    # Orientation of dependent pairs: which of the two came first.
    pairs = [
        f"{step_name[j]}<{later}"
        for later, thread, earlier in zip(step_name, threads, index.earlier)
        if thread is not None
        for j in earlier
        if threads[j] is not None
    ]
    pairs.sort()
    parts.append("#conflicts")
    parts.extend(pairs)
    return _digest(parts)


class FingerprintSet:
    """A set of fingerprints with JSON round-trip for checkpoints."""

    def __init__(self, digests: Iterable[str] = ()) -> None:
        self._digests: set[str] = set(digests)

    def add(self, digest: str) -> bool:
        """Insert; True when the digest was new."""
        if digest in self._digests:
            return False
        self._digests.add(digest)
        return True

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def __len__(self) -> int:
        return len(self._digests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FingerprintSet):
            return NotImplemented
        return self._digests == other._digests

    def issubset(self, other: "FingerprintSet | Iterable[str]") -> bool:
        """True when every digest here is also in *other*."""
        digests = (
            other._digests if isinstance(other, FingerprintSet) else set(other)
        )
        return self._digests <= digests

    def snapshot(self) -> list[str]:
        return sorted(self._digests)

    def update(self, other: "FingerprintSet | Iterable[str]") -> int:
        """Union *other* into this set; return the number of new digests.

        The return value is the equivalence-class reconciliation hook a
        sharded exploration needs: ``len(shard) - update(shard)`` is how
        many of a shard's classes were already discovered elsewhere.
        """
        digests = (
            other._digests if isinstance(other, FingerprintSet) else set(other)
        )
        fresh = digests - self._digests
        self._digests |= fresh
        return len(fresh)

    @classmethod
    def union(
        cls, sets: "Iterable[FingerprintSet | Iterable[str]]"
    ) -> "FingerprintSet":
        """Merge many shard-local sets into one global set."""
        merged = cls()
        for one in sets:
            merged.update(one)
        return merged

    @classmethod
    def from_snapshot(cls, digests: Iterable[str] | None) -> "FingerprintSet":
        """Restore a :meth:`snapshot`; corrupt input raises
        :class:`FingerprintError` instead of a raw exception."""
        if digests is None:
            return cls()
        if isinstance(digests, (str, bytes)) or not hasattr(
            digests, "__iter__"
        ):
            raise FingerprintError(
                "a fingerprint snapshot must be a list of digests, "
                f"not {type(digests).__name__}"
            )
        return cls(_validate_digest(digest) for digest in digests)
