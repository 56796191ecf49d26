"""Result types and rendering for sharded (swarm) checks."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.harness import Phase1Stats
from repro.core.report import reduced_pass_note, result_counts_to_dict

__all__ = [
    "ShardReport",
    "SwarmResult",
    "render_swarm_result",
    "swarm_result_to_dict",
]


@dataclass
class ShardReport:
    """One shard lineage's contribution to the merged verdict."""

    shard: int
    verdict: str  #: PASS/FAIL/PARTIAL-as-EXHAUSTED/CRASHED/nondet marker
    leases: int = 0
    retries: int = 0  #: crash retries burned across leases
    crashes: int = 0
    executions: int = 0
    classes: int = 0  #: shard-local equivalence classes
    pruned: int = 0
    seconds: float = 0.0
    opaque: bool = False  #: partition probe crashed; dispatched unsplit
    crash_report: str | None = None
    shard_checkpoint: str | None = None  #: ``lineup resume``-able frontier


@dataclass
class SwarmResult:
    """Merged outcome of one sharded check (mirrors ``CheckResult``).

    The verdict follows the usual precedence FAIL > nondeterministic >
    CRASHED > EXHAUSTED > PASS; ``phase2_complete`` is only True when
    every shard settled with its subtree exhausted, so a PASS means the
    same thing it means for a single-process exhaustive run.
    """

    verdict: str
    subject: str
    shards: list[ShardReport] = field(default_factory=list)
    phase1: Phase1Stats = field(default_factory=Phase1Stats)
    phase1_seconds: float = 0.0
    phase2_executions: int = 0
    phase2_full: int = 0
    phase2_stuck: int = 0
    #: histories the decider ran on, summed over leases (each lease
    #: starts with an empty PASS memo, see ``CheckResult.phase2_judged``).
    phase2_judged: int = 0
    phase2_divergent: int = 0
    #: the leases' worker seconds, summed (``swarm.cpu_seconds`` in JSON).
    phase2_seconds: float = 0.0
    schedules_explored: int = 0
    schedules_pruned: int = 0
    equivalence_classes: int = 0
    #: shard-local classes that were duplicates across shard boundaries
    #: (the redundancy cost of sharding the reduction).
    classes_rediscovered: int = 0
    violations: list[dict] = field(default_factory=list)  #: {kind, rendered}
    exhausted_reason: str | None = None
    phase2_complete: bool = True
    reduction: str = "none"
    partition_probes: int = 0
    leases: int = 0
    requeues: int = 0  #: lost-lease requeues (crash retries) across shards
    #: lineages that work stealing added by re-splitting a straggler
    #: shard; the others are the planned shards.
    resplits: int = 0
    quarantined: int = 0
    crash_reports: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def shard_count(shards: int) -> str:
    """``"1 shard"``, ``"4 shards"``: the header's and the report's."""
    return f"{shards} shard{'' if shards == 1 else 's'}"


def render_swarm_result(result: SwarmResult) -> str:
    """Human-readable swarm report (the CLI's default output)."""
    lines = [
        f"verdict: {result.verdict}",
        (
            f"phase 1: {result.phase1.histories} serial histories "
            f"({result.phase1.executions} executions, "
            f"{result.phase1.stuck_histories} stuck) "
            f"in {result.phase1_seconds:.2f}s"
        ),
        (
            f"phase 2: {result.phase2_executions} schedules across "
            f"{shard_count(len(result.shards) - result.resplits)}"
            + (f" + {result.resplits} re-split" if result.resplits else "")
            + ("s" if result.resplits > 1 else "")
            + f" ({result.leases} leases) "
            f"in {result.wall_seconds:.2f}s wall / "
            f"{result.phase2_seconds:.2f}s worker"
        ),
        (
            f"classes: {result.equivalence_classes} distinct "
            f"({result.classes_rediscovered} rediscovered across shards, "
            f"{result.schedules_pruned} schedules pruned)"
        ),
    ]
    if result.requeues or result.resplits or result.quarantined:
        lines.append(
            f"robustness: {result.requeues} requeue(s), "
            f"{result.resplits} re-split(s), "
            f"{result.quarantined} quarantined shard(s)"
        )
    if not result.phase2_complete:
        reason = result.exhausted_reason or "incomplete shards"
        lines.append(f"incomplete: {reason}")
    if result.passed and result.reduction != "none":
        lines.append(reduced_pass_note(result.reduction))
    for shard in result.shards:
        flags = []
        if shard.opaque:
            flags.append("opaque")
        if shard.retries:
            flags.append(f"{shard.retries} retries")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"  shard {shard.shard}: {shard.verdict} — "
            f"{shard.executions} schedules, {shard.classes} classes, "
            f"{shard.leases} lease(s){suffix}"
        )
        if shard.crash_report:
            lines.append(f"    crash report: {shard.crash_report}")
        if shard.shard_checkpoint:
            lines.append(
                f"    resume with: python -m repro resume "
                f"{shard.shard_checkpoint}"
            )
    for violation in result.violations[:1]:
        lines.append("")
        lines.append(violation.get("rendered") or violation.get("kind", ""))
    return "\n".join(lines)


def swarm_result_to_dict(result: SwarmResult) -> dict:
    """JSON summary of a swarm run (the CLI's ``--json`` output): the
    check document plus ``subject``, ``swarm``, ``crash_reports`` and
    ``reduction.classes_rediscovered``.  Violations arrive rendered by
    the workers; only their kinds are printed."""
    document = result_counts_to_dict(result)
    document["reduction"]["classes_rediscovered"] = result.classes_rediscovered
    return {
        "subject": result.subject,
        **document,
        "violations": [{"kind": v.get("kind")} for v in result.violations],
        "swarm": {
            "shards": [asdict(shard) for shard in result.shards],
            "partition_probes": result.partition_probes,
            "leases": result.leases,
            "requeues": result.requeues,
            "resplits": result.resplits,
            "quarantined": result.quarantined,
            "wall_seconds": result.wall_seconds,
            "cpu_seconds": result.phase2_seconds,
        },
        "crash_reports": result.crash_reports,
    }
