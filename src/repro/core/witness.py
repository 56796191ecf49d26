"""Serial-witness search (paper Definitions 1–3).

A serial history S is a *serial witness* for a history H when

1. S is serial,
2. ``H|t = S|t`` for every thread t (same per-thread operations, same
   responses), and
3. ``<H ⊆ <S`` (non-overlapping operations keep their order).

Because condition 2 forces S to have exactly H's profile, the search only
inspects the observation group with that profile (the paper notes this is
what makes the observation-file grouping effective).  Within a group,
condition 3 is a pairwise position check.

``check_full_history`` implements Definition 1 for the *full* concurrent
histories of phase 2 and ``check_stuck_history`` implements Definition 2
for the stuck ones: each pending operation e needs a stuck serial witness
for ``H[e]`` — the justification that e is *allowed* to block there.

``brute_force_full_witness`` is an independent O(n!) reference used by the
property-based tests to validate the grouped search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.core.events import Operation
from repro.core.history import History, SerialHistory, SerialStep
from repro.core.spec import ObservationSet

__all__ = [
    "StuckCheckResult",
    "brute_force_full_witness",
    "check_full_history",
    "check_stuck_history",
    "is_witness_for",
]


def is_witness_for(candidate: SerialHistory, history: History) -> bool:
    """Whether *candidate* is a serial witness for *history*.

    Assumes profiles already match (condition 2); verifies condition 3,
    ``<H ⊆ <S``, by comparing serial positions for every pair of
    ``history.precedence``.
    """
    position = candidate.positions.get
    for a, b in history.precedence:
        pa = position(a)
        pb = position(b)
        if pa is None or pb is None or pa >= pb:
            return False
    return True


def check_full_history(
    history: History, observations: ObservationSet
) -> SerialHistory | None:
    """Definition 1 for a full history: find a serial witness in set A.

    Returns the witness, or None when the history is not linearizable
    with respect to the synthesized specification.
    """
    profile = history.profile
    for candidate in observations.full_candidates(profile):
        if is_witness_for(candidate, history):
            return candidate
    return None


@dataclass(frozen=True)
class StuckCheckResult:
    """Outcome of Definition 2 for one stuck history.

    ``witnesses`` maps each pending operation key to its stuck serial
    witness; ``failed`` is the first pending operation that has none
    (None when the history is linearizable).
    """

    witnesses: dict[tuple[int, int], SerialHistory]
    failed: Operation | None

    @property
    def ok(self) -> bool:
        return self.failed is None


def check_stuck_history(
    history: History, observations: ObservationSet
) -> StuckCheckResult:
    """Definition 2: every pending operation of *history* needs a stuck
    serial witness for ``H[e]`` among the phase-1 stuck histories."""
    witnesses: dict[tuple[int, int], SerialHistory] = {}
    for op in history.pending_operations:
        projected = history.project_pending(op)
        witness = _find_stuck_witness(projected, observations)
        if witness is None:
            return StuckCheckResult(witnesses, failed=op)
        witnesses[op.key] = witness
    return StuckCheckResult(witnesses, failed=None)


def _find_stuck_witness(
    projected: History, observations: ObservationSet
) -> SerialHistory | None:
    profile = projected.profile
    for candidate in observations.stuck_candidates(profile):
        if is_witness_for(candidate, projected):
            return candidate
    return None


def brute_force_full_witness(
    history: History, observations: ObservationSet
) -> SerialHistory | None:
    """Reference implementation: try every permutation of the operations.

    Exponential; only for cross-validation in tests.  Considers every
    linear arrangement of the (complete) operations, keeps those that are
    serial witnesses for *history*, and returns the first that appears in
    the observation set.
    """
    recorded = {obs.tokens() for obs in observations.full}
    ops = history.operations
    for order in permutations(ops):
        # Per-thread program order must be preserved (well-formedness of S).
        per_thread: dict[int, int] = {}
        ok = True
        for op in order:
            expected = per_thread.get(op.thread, 0)
            if op.op_index != expected:
                ok = False
                break
            per_thread[op.thread] = expected + 1
        if not ok:
            continue
        candidate = SerialHistory(
            tuple(SerialStep(op.thread, op.invocation, op.response) for op in order)
        )
        if candidate.tokens() not in recorded:
            continue
        if is_witness_for(candidate, history):
            return candidate
    return None
