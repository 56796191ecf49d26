"""Decision-prefix partitioning of a check's phase-2 schedule space.

A *prefix* pins the first N branching decisions of every execution in a
shard; it is stored as a list of stack rows

``[kind, options, running, free, chosen, preemptions]``

mirroring :meth:`repro.runtime.DFSStrategy.snapshot` (minus the
``tried`` column, which the seeding fills in).  Seeding a DFS with the
prefix rows marked fully-tried makes it enumerate exactly the subtree
below the prefix: replay pins the pinned decisions, and backtracking
pops through the seeded rows without ever turning to a sibling.  Sibling
shards partition their parent's subtree — their union is the whole
space and their pairwise intersection is empty — so Theorem 5's
completeness survives sharding.

Splitting needs to know the branching structure below a prefix without
enumerating it; a *probe* (one execution following the prefix, then the
default schedule) reveals every branching point on the default path,
and :func:`children_from_outcome` splits on the first one past the
prefix whose alternatives fit the preemption budget.  Probes execute
the subject, so the swarm coordinator runs them in sandboxed workers —
a subject that crashes under a particular interleaving must kill a
worker, never the coordinator.

Reduction state (sleep sets, DPOR backtrack sets) is deliberately *not*
seeded: :meth:`SleepSetStrategy.from_snapshot` fills safe defaults for
missing reduction rows, an over-approximation that can only cost
pruning, never coverage.  Each shard's reduction is then complete for
its own subtree; reversals whose witness lives in a sibling subtree are
covered by that sibling's own reduction.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.errors import DecisionReplayError
from repro.runtime.scheduler import ExecutionOutcome, SchedulingStrategy
from repro.runtime.strategies import DFSStrategy

__all__ = [
    "PrefixProbeStrategy",
    "children_from_outcome",
    "expand_prefix",
    "partition_prefixes",
    "prefix_snapshot",
    "shard_snapshot",
    "split_shard_snapshot",
]

#: ``CheckConfig.reduction`` value -> strategy snapshot ``type`` tag.
REDUCTION_TAGS = {"none": "dfs", "sleep": "sleep", "dpor": "dpor"}


def _row_preempts(
    kind: str, options: tuple, running: int | None, free: bool, choice: Any
) -> bool:
    """``_Node.is_preemption`` applied to a raw decision row."""
    return (
        not free
        and kind == "thread"
        and running is not None
        and running in options
        and choice != running
    )


class PrefixProbeStrategy(SchedulingStrategy):
    """Run exactly one execution: follow *prefix*, then the DFS defaults.

    Only branching decisions (more than one option) reach a strategy,
    so prefix rows index branching decisions — the same depth space as
    the DFS stack.  The probe raises :class:`DecisionReplayError` when
    the subject's decision structure diverges from the recorded prefix
    (nondeterminism outside the instrumented primitives).
    """

    def __init__(self, prefix: list) -> None:
        self.prefix = list(prefix)
        self._branch = 0
        self._done = False

    def more(self) -> bool:
        return not self._done

    def begin(self) -> None:
        self._branch = 0

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        depth = self._branch
        self._branch += 1
        if depth < len(self.prefix):
            row = self.prefix[depth]
            if row[0] != kind or tuple(row[1]) != tuple(options):
                raise DecisionReplayError(
                    f"probe diverged at branching decision {depth}: expected "
                    f"{row[0]}{tuple(row[1])!r}, got {kind}{options!r}"
                )
            return row[4]
        return DFSStrategy._default_choice(kind, options, running)

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._done = True


def children_from_outcome(
    prefix: list, outcome: ExecutionOutcome, bound: int | None
) -> "list[list] | None":
    """Split a probed subtree at its first branching point past *prefix*.

    Returns one child prefix per *affordable* option of the split
    decision (options whose preemption the bound still affords — the
    same filter the DFS backtracker applies, so the children cover
    exactly what the parent DFS would explore).  Returns ``None`` when
    the probe pinned every splittable decision: the subtree holds
    exactly one schedule and the prefix is dispatched as a leaf.
    """
    branching = [d for d in outcome.decisions if len(d.options) > 1]
    rows: list[list] = []
    preemptions = 0
    for depth, decision in enumerate(branching):
        if depth >= len(prefix):
            budget = None if bound is None else bound - preemptions
            affordable = [
                option
                for option in decision.options
                if budget is None
                or budget >= 1
                or not _row_preempts(
                    decision.kind,
                    decision.options,
                    decision.running,
                    decision.free,
                    option,
                )
            ]
            if len(affordable) > 1:
                return [
                    rows
                    + [
                        [
                            decision.kind,
                            list(decision.options),
                            decision.running,
                            decision.free,
                            option,
                            preemptions,
                        ]
                    ]
                    for option in affordable
                ]
        chosen = decision.chosen
        rows.append(
            [
                decision.kind,
                list(decision.options),
                decision.running,
                decision.free,
                chosen,
                preemptions,
            ]
        )
        if _row_preempts(
            decision.kind,
            decision.options,
            decision.running,
            decision.free,
            chosen,
        ):
            preemptions += 1
    return None


def expand_prefix(harness, test, config, prefix: list) -> "list[list] | None":
    """Probe *prefix* on *harness*; return its children (None for a leaf).

    The swarm coordinator runs this in workers (see
    :func:`repro.swarm.worker.run_probe_task`) so a crash-prone subject
    cannot take the coordinator down; tests call it in-process.
    """
    strategy = PrefixProbeStrategy(prefix)
    for _history, outcome in harness.explore_concurrent(
        test, strategy, max_executions=1
    ):
        return children_from_outcome(prefix, outcome, config.preemption_bound)
    return None


#: What a round of probes answers for a prefix whose probe killed a worker.
OPAQUE = "opaque"
#: Probe rounds after which partitioning deals whatever it has.
MAX_PROBE_ROUNDS = 8


def partition_prefixes(
    probe_round, target: int, max_rounds: int = MAX_PROBE_ROUNDS
) -> "tuple[list[list], list[list], str | None]":
    """BFS-partition the schedule space into ~*target* prefixes.

    *probe_round* probes one round's frontier and returns ``(answers,
    stop)``.  ``answers`` pairs a frontier position with what its probe
    found: the children to split into, ``None`` for a leaf (a
    single-schedule subtree), or :data:`OPAQUE` for a subtree whose
    probe killed a worker — it is dispatched whole and never split.  A
    prefix without an answer stays in the frontier; ``stop`` (a halt
    reason, or None) ends the rounds.  The swarm coordinator probes in
    pool workers; :func:`expand_prefix` probes in-process.

    Rounds split the frontier until it reaches *target* prefixes (leaves
    count), the tree runs out of depth, *max_rounds* have run or a round
    stops.  Returns ``(plain, opaque, stop)``: together the prefixes
    always partition the full space.
    """
    frontier: list[list] = [[]]
    leaves: list[list] = []
    opaque: list[list] = []
    stop = None
    rounds = 0
    while (
        frontier
        and len(frontier) + len(leaves) + len(opaque) < target
        and rounds < max_rounds
        and stop is None
    ):
        rounds += 1
        answers, stop = probe_round(frontier)
        answered = {position for position, _ in answers}
        next_frontier = [
            prefix
            for position, prefix in enumerate(frontier)
            if position not in answered
        ]
        for position, children in answers:
            if children is OPAQUE:
                opaque.append(frontier[position])
            elif children is None:
                leaves.append(frontier[position])
            else:
                next_frontier.extend(children)
        frontier = next_frontier
    return leaves + frontier, opaque, stop


def prefix_snapshot(config, prefix: list) -> dict:
    """A seeded strategy snapshot that explores exactly *prefix*'s subtree.

    Every prefix row becomes a stack node with ``tried`` = all options,
    so the restored DFS replays the pinned decisions and backtracks
    through them without visiting siblings.  The tag matches the
    config's reduction so each shard prunes with the same machinery a
    single-process run would use.
    """
    return {
        "type": REDUCTION_TAGS[config.reduction],
        "preemption_bound": config.preemption_bound,
        "exhausted": False,
        "executions": 0,
        "stack": [
            [
                kind,
                list(options),
                running,
                free,
                chosen,
                sorted(set(options)),
                preemptions,
            ]
            for kind, options, running, free, chosen, preemptions in prefix
        ],
    }


def shard_snapshot(config, prefixes: "list[list]") -> dict:
    """Bundle *prefixes* into one :class:`ShardStrategy` snapshot."""
    return {
        "type": "shard",
        "executions": 0,
        "pruned": 0,
        "current": None,
        "pending": [prefix_snapshot(config, prefix) for prefix in prefixes],
    }


def split_shard_snapshot(snap: dict, parts: int) -> list[dict]:
    """Deal a shard snapshot's pending subtrees round-robin into *parts*.

    Part 0 keeps the in-flight ``current`` subtree (and the shard's
    accumulated counters — it continues the original lineage); the rest
    are fresh shards.  Used by work stealing to re-split a straggler.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    pending = list(snap.get("pending") or [])
    buckets: list[list] = [[] for _ in range(parts)]
    for index, inner in enumerate(pending):
        buckets[index % parts].append(inner)
    out = []
    for index, bucket in enumerate(buckets):
        first = index == 0
        out.append(
            {
                "type": "shard",
                "executions": snap.get("executions", 0) if first else 0,
                "pruned": snap.get("pruned", 0) if first else 0,
                "current": snap.get("current") if first else None,
                "pending": bucket,
            }
        )
    return out
