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
enumerating it.  A *probe* is a shard lease of one execution of the
prefix's plain DFS: it follows the prefix, then the default schedule,
and hands back the DFS stack it backtracked to.  That stack holds every
branching point on the default path with its preemption count, and
:func:`children_from_lease` splits on the first one past the prefix
whose alternatives fit the preemption budget.  Probes execute the
subject, so the swarm coordinator runs them in sandboxed workers — a
subject that crashes under a particular interleaving must kill a
worker, never the coordinator.

Reduction state (sleep sets, DPOR backtrack sets) is deliberately *not*
seeded: :meth:`SleepSetStrategy.from_snapshot` fills safe defaults for
missing reduction rows, an over-approximation that can only cost
pruning, never coverage.  Each shard's reduction is then complete for
its own subtree; reversals whose witness lives in a sibling subtree are
covered by that sibling's own reduction.
"""

from __future__ import annotations

from repro.runtime.strategies import DFSStrategy

__all__ = [
    "children_from_lease",
    "partition_prefixes",
    "prefix_snapshot",
    "shard_snapshot",
    "split_shard_snapshot",
]

#: ``CheckConfig.reduction`` value -> strategy snapshot ``type`` tag.
REDUCTION_TAGS = {"none": "dfs", "sleep": "sleep", "dpor": "dpor"}


def children_from_lease(
    prefix: list, remaining: dict | None
) -> "list[list] | None":
    """Split a probed subtree at its first branching row past *prefix*.

    *remaining* is what a one-execution lease of :func:`prefix_snapshot`
    (a plain DFS) hands back: the stack after the DFS backtracked from
    the default path below *prefix*, or None when that execution was the
    whole subtree (a leaf).  Backtracking rewrote only the rows at or
    below the first one with more than one option the preemption bound
    affords, so that row's ``options``, ``running``, ``free`` and
    ``preemptions`` — and every row above it — are the default path's.
    Returns one child prefix per affordable option of that row, in
    option order: exactly what the parent DFS would explore below it.
    """
    if remaining is None:
        return None
    bound = remaining["preemption_bound"]
    # Stack rows less their ``tried`` column are prefix rows.
    rows = [row[:5] + row[6:] for row in remaining["stack"]]
    for depth in range(len(prefix), len(rows)):
        kind, options, running, free, chosen, preemptions = rows[depth]
        node = DFSStrategy.node_class(
            kind, tuple(options), running, free, chosen, preemptions
        )
        affordable = [
            option
            for option in options
            if bound is None
            or bound - preemptions >= 1
            or not node.is_preemption(option)
        ]
        if len(affordable) > 1:
            return [
                rows[:depth]
                + [[kind, options, running, free, option, preemptions]]
                for option in affordable
            ]
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
    pool workers, with one-execution leases read by
    :func:`children_from_lease`.

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


def prefix_snapshot(config, prefix: list, reduction: str | None = None) -> dict:
    """A seeded strategy snapshot that explores exactly *prefix*'s subtree.

    Every prefix row becomes a stack node with ``tried`` = all options,
    so the restored DFS replays the pinned decisions and backtracks
    through them without visiting siblings.  The tag matches the
    config's reduction (or *reduction*, when given) so each shard prunes
    with the same machinery a single-process run would use; a probe asks
    for ``"none"``, because reduction state never steers the partition.
    """
    return {
        "type": REDUCTION_TAGS[reduction or config.reduction],
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
