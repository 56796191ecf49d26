"""Fault-tolerant sharded exploration of a single check's schedule space.

``--isolate`` (PR 3) parallelizes *across* tests; this package
parallelizes *within* one: the phase-2 DFS frontier is partitioned by
decision prefix into shards, the shards are fanned across the caller's
:class:`repro.exec.WorkerPool`, and the per-shard results (fingerprint
sets, counters, violations) are merged into one verdict under the usual
precedence FAIL > nondeterministic > CRASHED > EXHAUSTED > PASS.

The robustness contract: a crashed, hung, or preempted shard costs
retries, never coverage.  Shards run under execution leases, and a
partition probe is a lease of one execution (:mod:`repro.swarm
.partition` has the prefix math); a lost lease is requeued with
jittered exponential backoff; a shard that kills workers repeatedly is
quarantined *with a resumable shard checkpoint*; straggler shards are
re-split onto idle workers; and the coordinator checkpoints
incrementally so ``lineup resume`` restarts a swarm run from surviving
shard results.
"""

from repro.swarm.report import (
    ShardReport,
    SwarmResult,
    render_swarm_result,
    swarm_result_to_dict,
)
from repro.swarm.runner import SwarmConfig, swarm_check
from repro.swarm.strategy import ShardStrategy

__all__ = [
    "ShardReport",
    "ShardStrategy",
    "SwarmConfig",
    "SwarmResult",
    "render_swarm_result",
    "swarm_check",
    "swarm_result_to_dict",
]
