"""Crash-safe merge checkpoints for swarm runs, and the merge itself.

A swarm checkpoint is one main document (``kind="swarm"``: subject,
test, config, phase-1 results, observation XML, and references to the
shard files) plus one ``kind="shard-result"`` file per shard lineage
(``<checkpoint>.shard-<id>.json``) holding everything that lineage has
produced: counters, fingerprint digests, rendered violations, the
remaining frontier snapshot, and its retry/quarantine record.  Shard
files are written before the main document ever references them, so a
coordinator crash at any instant leaves a resumable pair.

Corrupt per-shard files must never blend silently into a merged
verdict: :func:`load_shard_result` re-raises every
:class:`~repro.core.checkpoint.CheckpointError` with the offending
shard named, and validates that the file is the right kind for the
right shard.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.checker import PHASE2_TALLY, sum_tallies
from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "LEASE_TALLY",
    "SHARD_RESULT_KIND",
    "SWARM_KIND",
    "lineage_verdict",
    "load_shard_result",
    "merge_lineage_states",
    "save_shard_result",
    "shard_result_path",
]

SWARM_KIND = "swarm"
SHARD_RESULT_KIND = "shard-result"

#: What a shard lease counts: the phase-2 tally plus the schedules its
#: reduction pruned.  A lineage sums its leases' tallies; the merge sums
#: the lineages', with their lease and retry records.
LEASE_TALLY = {**PHASE2_TALLY, "pruned": int}
_MERGE_TALLY = {
    **LEASE_TALLY, "leases": int, "requeues": int, "retries": int, "crashes": int,
}


def shard_result_path(checkpoint_path: str, shard: int) -> str:
    return f"{checkpoint_path}.shard-{shard}.json"


def save_shard_result(checkpoint_path: str, shard: int, state: dict) -> str:
    """Atomically write one lineage's result file; returns its path."""
    path = shard_result_path(checkpoint_path, shard)
    save_checkpoint(path, {"kind": SHARD_RESULT_KIND, "shard": shard, **state})
    return path


def load_shard_result(path: str, shard: int) -> dict:
    """Load and validate one shard's result file.

    Raises :class:`CheckpointError` naming the shard on any corruption:
    unreadable or truncated JSON, format/version skew (both detected by
    :func:`load_checkpoint`), a wrong ``kind``, or a shard-id mismatch.
    """
    try:
        document = load_checkpoint(path)
    except CheckpointError as exc:
        raise CheckpointError(f"shard {shard}: {exc}") from exc
    if document.get("kind") != SHARD_RESULT_KIND:
        raise CheckpointError(
            f"shard {shard}: {path!r} is not a shard-result checkpoint "
            f"(kind={document.get('kind')!r})"
        )
    if document.get("shard") != shard:
        raise CheckpointError(
            f"shard {shard}: {path!r} records results for shard "
            f"{document.get('shard')!r}"
        )
    return document


def merge_lineage_states(states: Iterable[dict]) -> dict:
    """Fold per-lineage result states into the global aggregate.

    The verdict is the worst across lineages (FAIL > nondeterministic >
    CRASHED > EXHAUSTED > PASS; an unsettled lineage contributes
    EXHAUSTED — its coverage is missing, never silently assumed).
    ``equivalence_classes`` is the size of the fingerprint union — the
    one number that cannot be computed shard-locally — and
    ``classes_rediscovered`` is how many shard-local classes turned out
    to be duplicates across shard boundaries.
    """
    from repro.core.verdict import worst_verdict
    from repro.reduction import FingerprintSet

    states = list(states)
    union = FingerprintSet()
    local_classes = 0
    for state in states:
        digests = state.get("fingerprints") or []
        local_classes += len(set(digests))
        union.update(digests)
    return {
        "verdict": worst_verdict(lineage_verdict(state) for state in states),
        "totals": sum_tallies(states, _MERGE_TALLY),
        "equivalence_classes": len(union),
        "classes_rediscovered": local_classes - len(union),
        "violations": [
            violation
            for state in states
            for violation in state.get("violations") or ()
        ],
        "crash_reports": [
            state["crash_report"] for state in states if state.get("crash_report")
        ],
        "quarantined": sum(state.get("verdict") == "CRASHED" for state in states),
        "complete": all(state.get("settled") for state in states),
    }


def lineage_verdict(state: dict) -> str:
    """A lineage's verdict; an unsettled one is EXHAUSTED."""
    return state.get("verdict") or ("PASS" if state.get("settled") else "EXHAUSTED")
