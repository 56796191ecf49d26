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

from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "SHARD_RESULT_KIND",
    "SWARM_KIND",
    "load_shard_result",
    "merge_lineage_states",
    "save_shard_result",
    "shard_result_path",
]

SWARM_KIND = "swarm"
SHARD_RESULT_KIND = "shard-result"


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

    union = FingerprintSet()
    totals = {
        "executions": 0,
        "full": 0,
        "stuck": 0,
        "judged": 0,
        "divergent": 0,
        "pruned": 0,
        "seconds": 0.0,
        "leases": 0,
        "requeues": 0,
        "retries": 0,
        "crashes": 0,
    }
    verdicts: list[str] = []
    violations: list[dict] = []
    crash_reports: list[str] = []
    local_classes = 0
    quarantined = 0
    settled = True
    for state in states:
        verdicts.append(
            state.get("verdict") or ("PASS" if state.get("settled") else "EXHAUSTED")
        )
        if not state.get("settled"):
            settled = False
        for key in totals:
            totals[key] += state.get(key) or 0
        digests = state.get("fingerprints") or []
        local_classes += len(set(digests))
        union.update(digests)
        violations.extend(state.get("violations") or [])
        if state.get("crash_report"):
            crash_reports.append(state["crash_report"])
        if state.get("verdict") == "CRASHED":
            quarantined += 1
    return {
        "verdict": worst_verdict(verdicts),
        "totals": totals,
        "equivalence_classes": len(union),
        "classes_rediscovered": local_classes - len(union),
        "violations": violations,
        "crash_reports": crash_reports,
        "quarantined": quarantined,
        "complete": settled,
    }
