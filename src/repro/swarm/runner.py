"""The swarm coordinator: partition, lease, steal, merge, survive.

One sharded check proceeds in four phases:

1. **Phase 1** runs in the coordinator (serial enumeration is the cheap,
   deterministic part, and its nondeterminism FAIL needs no sharding).
2. **Partition**: decision prefixes are probed *in workers* (a subject
   that crashes under some interleaving must kill a worker, never the
   coordinator); a prefix whose probe crashes the worker becomes an
   *opaque* shard dispatched whole, contained by the lease machinery.
3. **Lease rounds**: every unsettled shard lineage gets a lease of at
   most ``lease_executions`` executions per round.  A lease comes back
   PASS (subtree exhausted), FAIL (violation — a proof, the swarm
   stops), PARTIAL (frontier snapshot returned, re-leased next round),
   or CRASHED (the pool burned its per-lease crash retries, each with
   jittered exponential backoff, and quarantined the lease — the shard
   settles CRASHED with a crash report and a ``lineup resume``-able
   shard checkpoint).  Between rounds, work stealing re-splits the
   straggler with the largest frontier onto idle capacity, and the pool
   degrades gracefully when workers stop coming back.
4. **Merge**: per-shard counters are summed, fingerprint sets unioned
   (the cross-shard equivalence-class reconciliation), and the verdict
   is the worst across shards: FAIL > nondeterministic-verdict >
   CRASHED > EXHAUSTED > PASS.

Every lease event rewrites that shard's result file, and the main swarm
document is written only after the shard files it references — so a
coordinator crash at any instant leaves a checkpoint ``lineup resume``
can restart from surviving shard results.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.budget import BudgetMeter, ExplorationControl
from repro.core.checker import CheckConfig, _run_phase1
from repro.core.checkpoint import (
    _phase1_from_dict,
    _phase1_to_dict,
    build_check_state,
    config_from_dict,
    config_to_dict,
    save_checkpoint,
    test_from_dict,
    test_to_dict,
)
from repro.core.harness import SystemUnderTest, TestHarness
from repro.core.observations import observations_from_xml, observations_to_xml
from repro.exec.sandbox import DEFAULT_PROVIDER
from repro.exec.supervisor import (
    NONDETERMINISTIC_VERDICT,
    PoolConfig,
    TaskSpec,
    WorkerPool,
)
from repro.swarm.merge import (
    SWARM_KIND,
    load_shard_result,
    merge_lineage_states,
    save_shard_result,
    shard_result_path,
)
from repro.swarm.partition import shard_snapshot, split_shard_snapshot
from repro.swarm.report import ShardReport, SwarmResult

__all__ = ["SwarmConfig", "swarm_check"]

#: Lease verdicts that settle a lineage for good.
_TERMINAL = ("PASS", "FAIL", NONDETERMINISTIC_VERDICT, "CRASHED")


#: Partition into ``shards * _OVER_PARTITION`` prefixes so the deal is
#: balanced and work stealing has slack to redistribute.
_OVER_PARTITION = 3
#: Probe rounds after which partitioning deals whatever it has.
_MAX_PROBE_ROUNDS = 8


@dataclass(frozen=True)
class SwarmConfig:
    """Sharding knobs for one swarm run."""

    shards: int = 4
    #: max executions per lease; small leases mean frequent checkpoints
    #: and cheap loss, large leases mean less dispatch overhead.
    lease_executions: int = 512

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.lease_executions < 1:
            raise ValueError("lease_executions must be >= 1")

    def to_dict(self) -> dict:
        return {"shards": self.shards, "lease_executions": self.lease_executions}

    @classmethod
    def from_dict(cls, data: dict) -> "SwarmConfig":
        """Other keys (older checkpoints carry three retired knobs) are
        ignored."""
        return cls(
            shards=int(data.get("shards", 4)),
            lease_executions=int(data.get("lease_executions", 512)),
        )


class _Lineage:
    """One shard lineage: a frontier slice and everything it produced."""

    def __init__(
        self, shard_id: int, snapshot: dict | None, opaque: bool = False
    ) -> None:
        self.id = shard_id
        self.snapshot = snapshot  #: frontier at the next lease start
        self.opaque = opaque
        self.settled = False
        self.verdict: str | None = None
        self.retries = 0
        self.crashes = 0
        self.leases = 0
        self.requeues = 0
        self.outcomes: dict[int, Any] = {}  #: task index -> TaskOutcome
        self.crash_report: str | None = None
        self.shard_checkpoint: str | None = None
        #: crash-retry counter carried into the next dispatch (used on
        #: resume so a quarantined shard gets exactly one fresh attempt).
        self.prior_retries = 0

    def totals(self) -> dict:
        """Coverage produced so far, derived from final lease outcomes.

        Amended outcomes (the flaky-verdict guard can re-run a lease)
        replace their predecessor in ``outcomes``, so deriving lazily
        from the dict — instead of accumulating per event — counts each
        lease's subtree exactly once.
        """
        agg: dict[str, Any] = {
            "executions": 0,
            "full": 0,
            "stuck": 0,
            "judged": 0,
            "divergent": 0,
            "pruned": 0,
            "seconds": 0.0,
        }
        digests: set[str] = set()
        violations: list[dict] = []
        for index in sorted(self.outcomes):
            summary = self.outcomes[index].summary
            if not summary or summary.get("kind") != "shard":
                continue
            for key in (
                "executions", "full", "stuck", "judged", "divergent", "pruned"
            ):
                agg[key] += int(summary.get(key) or 0)
            agg["seconds"] += float(summary.get("seconds") or 0.0)
            digests.update(summary.get("fingerprints") or ())
            violations.extend(summary.get("violations") or ())
        agg["fingerprints"] = sorted(digests)
        agg["violations"] = violations
        return agg

    def state(self) -> dict:
        """The shard-result file body for this lineage."""
        return {
            "settled": self.settled,
            "verdict": self.verdict,
            "opaque": self.opaque,
            "pending": self.snapshot,
            "retries": self.retries,
            "crashes": self.crashes,
            "leases": self.leases,
            "requeues": self.requeues,
            "crash_report": self.crash_report,
            "shard_checkpoint": self.shard_checkpoint,
            **self.totals(),
        }

    @classmethod
    def from_state(cls, shard_id: int, state: dict) -> "_Lineage":
        lineage = cls(shard_id, state.get("pending"), bool(state.get("opaque")))
        lineage.settled = bool(state.get("settled"))
        lineage.verdict = state.get("verdict")
        lineage.retries = int(state.get("retries") or 0)
        lineage.crashes = int(state.get("crashes") or 0)
        lineage.leases = int(state.get("leases") or 0)
        lineage.requeues = int(state.get("requeues") or 0)
        lineage.crash_report = state.get("crash_report")
        lineage.shard_checkpoint = state.get("shard_checkpoint")
        # Restored coverage is carried as one synthetic settled outcome.
        totals = {
            key: state.get(key)
            for key in (
                "executions",
                "full",
                "stuck",
                "judged",
                "divergent",
                "pruned",
                "seconds",
                "fingerprints",
                "violations",
            )
        }
        if totals.get("executions") or totals.get("fingerprints"):
            lineage.outcomes[-1] = _RestoredOutcome(
                {"kind": "shard", **{k: v for k, v in totals.items() if v}}
            )
        return lineage


class _RestoredOutcome:
    """Minimal stand-in for a TaskOutcome rebuilt from a shard file."""

    def __init__(self, summary: dict) -> None:
        self.summary = summary


def _frontier_size(snapshot: dict | None) -> int:
    if not snapshot:
        return 0
    return len(snapshot.get("pending") or ()) + (
        1 if snapshot.get("current") else 0
    )


def _validate(config: CheckConfig) -> None:
    if config.phase2_strategy != "dfs":
        raise ValueError(
            "sharded exploration partitions a DFS frontier; "
            f"phase2_strategy {config.phase2_strategy!r} is not shardable "
            "(use --shards with the default dfs strategy)"
        )
    if config.backend != "observations":
        raise ValueError(
            "sharded exploration supports the observations backend only"
        )
    if config.dump_traces:
        raise ValueError(
            "--dump-traces is not supported with --shards (each worker "
            "would race for the same trace file)"
        )


def swarm_check(
    class_name: str,
    version: str,
    test,
    config: CheckConfig | None = None,
    *,
    provider: str | None = None,
    swarm: SwarmConfig | None = None,
    pool: WorkerPool | None = None,
    pool_config: PoolConfig | None = None,
    control: ExplorationControl | None = None,
    checkpoint_path: str | None = None,
    resume_document: dict | None = None,
    on_event: Callable[[str, dict], None] | None = None,
) -> SwarmResult:
    """Run one sharded two-phase check; returns the merged result.

    The subject is named (class/version/provider), not passed as an
    object, because shard specs must cross the spawn boundary to the
    workers.  *pool* reuses a caller-owned :class:`WorkerPool` (it is
    left open); otherwise one is built from *pool_config* and closed on
    exit.  *resume_document* is a loaded ``kind="swarm"`` checkpoint;
    surviving shard results are merged in and only unsettled (or
    quarantined) lineages are re-dispatched.
    """
    cfg = config or CheckConfig()
    _validate(cfg)
    swarm = swarm or SwarmConfig()
    started = time.monotonic()

    provider_name = provider or DEFAULT_PROVIDER
    provider_module = importlib.import_module(provider_name)
    entry = provider_module.get_class(class_name)
    subject_name = f"{entry.name}({version})"

    def emit(name: str, payload: dict) -> None:
        if on_event is not None:
            on_event(name, payload)

    if control is None and cfg.budget is not None:
        control = ExplorationControl(budget=cfg.budget)
    if (
        control is not None
        and resume_document is not None
        and resume_document.get("budget") is not None
    ):
        control.meter = BudgetMeter.from_snapshot(resume_document["budget"])
    if control is not None:
        control.start()

    def base_result(verdict: str) -> SwarmResult:
        return SwarmResult(
            verdict=verdict,
            subject=subject_name,
            phase1=stats,
            phase1_seconds=phase1_seconds,
            reduction=cfg.reduction,
            wall_seconds=time.monotonic() - started,
        )

    # ---- Phase 1 (coordinator-side; see the module docstring). -------
    lineages: dict[int, _Lineage] = {}
    partition_probes = 0
    if resume_document is not None:
        stats = _phase1_from_dict(resume_document.get("phase1") or {})
        phase1_seconds = float(resume_document.get("phase1_seconds") or 0.0)
        observations = observations_from_xml(resume_document["observations"])
        for shard_id, path in (resume_document.get("shard_files") or {}).items():
            shard_id = int(shard_id)
            state = load_shard_result(path, shard_id)
            lineage = _Lineage.from_state(shard_id, state)
            if lineage.verdict == "CRASHED" and lineage.snapshot is not None:
                # Re-dispatch a quarantined shard with its retry budget
                # spent: one fresh attempt, then re-quarantine.
                lineage.settled = False
                lineage.verdict = None
                lineage.prior_retries = lineage.retries
            lineages[shard_id] = lineage
        partition_probes = int(
            (resume_document.get("swarm") or {}).get("partition_probes") or 0
        )
    else:
        subject = SystemUnderTest(entry.factory(version), subject_name)
        with TestHarness.from_config(subject, cfg) as harness:
            phase1 = _run_phase1(harness, test, cfg, control=control)
        stats, phase1_seconds = phase1.phase1, phase1.phase1_seconds
        observations = phase1.observations
        if not phase1.passed:
            # The gate said no (nondeterministic or partial specification):
            # the answer is phase 1's, and no worker starts.
            from repro.core.report import render_violation

            result = base_result(phase1.verdict)
            result.violations = [
                {"kind": v.kind, "rendered": render_violation(v, observations)}
                for v in phase1.violations
            ]
            result.exhausted_reason = phase1.exhausted_reason
            result.phase2_complete = phase1.phase2_complete
            return result

    # ---- Pool + spec plumbing. ---------------------------------------
    own_pool = pool is None
    if pool is None:
        pool = WorkerPool(pool_config)
    test_dict = test_to_dict(test)
    worker_config = config_to_dict(cfg)
    # The coordinator owns the budget; shard leases are metered by the
    # lease cap, not by a per-worker copy of the global budget.
    worker_config["budget"] = None
    swarm_args = {
        "shards": swarm.shards,
        "workers": pool.config.workers,
        "mem_limit_mb": pool.config.limits.mem_limit_mb,
        "max_retries": pool.config.max_retries,
    }
    task_counter = iter(range(1, 1 << 30))
    observations_xml = observations_to_xml(observations)

    def make_spec(kind: str, payload: dict) -> TaskSpec:
        return TaskSpec(
            index=next(task_counter),
            class_name=class_name,
            version=version,
            test=test_dict,
            config=worker_config,
            provider=provider_name,
            kind=kind,
            payload=payload,
            swarm=swarm_args,
        )

    stop_flag = {"fail": False}

    def pool_stop() -> bool:
        if stop_flag["fail"]:
            return True
        if control is not None and control.stop is not None:
            return bool(control.stop())
        return False

    pool_control = ExplorationControl(
        meter=control.meter if control is not None else None, stop=pool_stop
    )

    # ---- Checkpoint writers (shard files first, then the main doc). --
    def save_shard(lineage: _Lineage) -> None:
        if checkpoint_path is not None:
            save_shard_result(checkpoint_path, lineage.id, lineage.state())

    def save_main() -> None:
        if checkpoint_path is None:
            return
        save_checkpoint(
            checkpoint_path,
            {
                "kind": SWARM_KIND,
                "subject": {
                    "cls": class_name,
                    "version": version,
                    "provider": provider_name,
                },
                "test": test_dict,
                "config": config_to_dict(cfg),
                "swarm": {
                    **swarm.to_dict(),
                    "partition_probes": partition_probes,
                },
                "pool": {
                    "workers": pool.config.workers,
                    "start_method": pool.config.start_method,
                    "mem_limit_mb": pool.config.limits.mem_limit_mb,
                    "max_retries": pool.config.max_retries,
                    "report_dir": pool.config.report_dir,
                },
                "phase1": _phase1_to_dict(stats),
                "phase1_seconds": phase1_seconds,
                "observations": observations_xml,
                "budget": (
                    control.meter.snapshot()
                    if control is not None and control.meter is not None
                    else None
                ),
                "shard_files": {
                    str(lineage.id): shard_result_path(
                        checkpoint_path, lineage.id
                    )
                    for lineage in lineages.values()
                },
            },
        )

    halt: str | None = None
    resplits = 0
    try:
        # ---- Partition by probing decision prefixes in workers. ------
        if not lineages:
            prefixes: list[tuple[list, bool]] = []
            frontier: list[list] = [[]]
            target = swarm.shards * _OVER_PARTITION
            rounds = 0
            while (
                frontier
                and len(frontier) + len(prefixes) < target
                and rounds < _MAX_PROBE_ROUNDS
                and halt is None
            ):
                rounds += 1
                by_index = {}
                specs = []
                for prefix in frontier:
                    spec = make_spec("probe", {"prefix": prefix})
                    by_index[spec.index] = prefix
                    specs.append(spec)
                partition_probes += len(specs)
                outcomes, stop = pool.run(specs, control=pool_control)
                done = {outcome.index for outcome in outcomes}
                next_frontier = [
                    by_index[index] for index in by_index if index not in done
                ]
                for outcome in outcomes:
                    prefix = by_index[outcome.index]
                    if outcome.crashed:
                        # This subtree's first execution kills workers:
                        # stop probing it, dispatch it whole, and let
                        # the lease machinery contain it.
                        prefixes.append((prefix, True))
                        continue
                    children = (outcome.summary or {}).get("children")
                    if children is None:
                        prefixes.append((prefix, False))
                    else:
                        next_frontier.extend(children)
                frontier = next_frontier
                if stop is not None:
                    halt = stop
            prefixes.extend((prefix, False) for prefix in frontier)

            # Deal splittable prefixes round-robin into `shards`
            # lineages; opaque prefixes get a lineage each so their
            # quarantine never takes healthy subtrees with it.
            opaque = [prefix for prefix, is_opaque in prefixes if is_opaque]
            plain = [prefix for prefix, is_opaque in prefixes if not is_opaque]
            buckets = [
                plain[i :: swarm.shards] for i in range(swarm.shards)
            ]
            shard_id = 0
            for bucket in buckets:
                if not bucket:
                    continue
                lineages[shard_id] = _Lineage(
                    shard_id, shard_snapshot(cfg, bucket)
                )
                shard_id += 1
            for prefix in opaque:
                lineages[shard_id] = _Lineage(
                    shard_id, shard_snapshot(cfg, [prefix]), opaque=True
                )
                shard_id += 1
            for lineage in lineages.values():
                save_shard(lineage)
            save_main()
            emit(
                "partitioned",
                {
                    "prefixes": len(prefixes),
                    "shards": len(lineages),
                    "probes": partition_probes,
                    "pool": pool,
                },
            )

        # ---- Lease rounds. -------------------------------------------
        quarantine_paths: dict[int, str] = {}
        seen: set[int] = set()
        by_task: dict[int, _Lineage] = {}
        #: retry counters already accounted for before dispatch (resume
        #: restores them), so outcome.retries is metered by delta.
        prior_by_task: dict[int, int] = {}

        def quarantine_extra(spec: TaskSpec) -> dict | None:
            if spec.kind != "shard":
                return None
            payload = spec.payload or {}
            state = build_check_state(
                test=test,
                config=cfg,
                phase="phase2",
                strategy=None,
                observations=observations,
                phase1=stats,
                phase1_seconds=phase1_seconds,
            )
            # The lease-start frontier is already a snapshot dict.
            state["strategy"] = payload.get("strategy")
            state["subject"] = {
                "cls": class_name,
                "version": version,
                "provider": provider_name,
            }
            path = os.path.join(
                pool.report_dir,
                f"shard-{payload.get('shard')}-t{spec.index}.checkpoint.json",
            )
            save_checkpoint(path, state)
            quarantine_paths[spec.index] = path
            return {
                "shard": payload.get("shard"),
                "shard_checkpoint": path,
                "resume_command": f"python -m repro resume {path}",
            }

        def on_outcome(outcome, retry_map) -> None:
            lineage = by_task.get(outcome.index)
            if lineage is None:
                return
            first = outcome.index not in seen
            seen.add(outcome.index)
            lineage.outcomes[outcome.index] = outcome
            if first:
                fresh_retries = max(
                    0, outcome.retries - prior_by_task.get(outcome.index, 0)
                )
                lineage.leases += 1
                lineage.retries += fresh_retries
                lineage.requeues += fresh_retries
                lineage.crashes += len(outcome.crashes)
                if outcome.verdict == "PARTIAL":
                    remaining = (outcome.summary or {}).get("remaining")
                    lineage.snapshot = remaining
                    if remaining is None:  # defensive: PARTIAL sans frontier
                        lineage.settled = True
                        lineage.verdict = "PASS"
                elif outcome.verdict in _TERMINAL:
                    lineage.settled = True
                    lineage.verdict = outcome.verdict
                    if outcome.verdict == "CRASHED":
                        lineage.crash_report = outcome.crash_report
                        lineage.shard_checkpoint = quarantine_paths.get(
                            outcome.index
                        )
                        # Keep the lease-start frontier: it is what a
                        # later `lineup resume` re-dispatches.
                        lineage.snapshot = lease_snapshots.get(outcome.index)
                    else:
                        lineage.snapshot = None
                if (
                    control is not None
                    and control.meter is not None
                    and outcome.summary
                    and outcome.summary.get("kind") == "shard"
                ):
                    control.meter.executions += int(
                        outcome.summary.get("executions") or 0
                    )
            else:
                # Flaky-guard amendment: the re-run may have changed the
                # lease's verdict (FAIL -> nondeterministic-verdict).
                if lineage.settled and outcome.verdict in _TERMINAL:
                    lineage.verdict = outcome.verdict
            if outcome.verdict in ("FAIL", NONDETERMINISTIC_VERDICT):
                stop_flag["fail"] = True
            save_shard(lineage)
            emit(
                "lease",
                {
                    "shard": lineage.id,
                    "verdict": outcome.verdict,
                    "retries": outcome.retries,
                    "pool": pool,
                },
            )

        next_shard_id = (max(lineages) + 1) if lineages else 0
        while halt is None and not stop_flag["fail"]:
            active = [
                lineage
                for lineage in lineages.values()
                if not lineage.settled and lineage.snapshot is not None
            ]
            if not active:
                break
            # Work stealing: re-split the fattest frontier onto idle
            # capacity (bounded by graceful degradation's worker limit).
            capacity = min(pool.worker_limit, pool.config.workers)
            while len(active) < capacity:
                candidate = max(
                    (
                        lineage
                        for lineage in active
                        if len((lineage.snapshot or {}).get("pending") or ())
                        >= 1
                    ),
                    key=lambda lineage: _frontier_size(lineage.snapshot),
                    default=None,
                )
                if candidate is None:
                    break
                pending = len(candidate.snapshot.get("pending") or ())
                parts = min(capacity - len(active) + 1, pending)
                if parts < 2:
                    break
                splits = split_shard_snapshot(candidate.snapshot, parts)
                candidate.snapshot = splits[0]
                save_shard(candidate)
                for split in splits[1:]:
                    fresh = _Lineage(next_shard_id, split)
                    next_shard_id += 1
                    lineages[fresh.id] = fresh
                    active.append(fresh)
                    save_shard(fresh)
                resplits += 1
                save_main()
                emit(
                    "resplit",
                    {"from": candidate.id, "parts": parts, "pool": pool},
                )

            lease_snapshots: dict[int, dict] = {}
            prior_retries: dict[int, int] = {}
            specs = []
            for lineage in active:
                spec = make_spec(
                    "shard",
                    {
                        "shard": lineage.id,
                        "strategy": lineage.snapshot,
                        "observations": observations_xml,
                        "lease_executions": swarm.lease_executions,
                    },
                )
                by_task[spec.index] = lineage
                lease_snapshots[spec.index] = lineage.snapshot
                if lineage.prior_retries:
                    prior_retries[spec.index] = lineage.prior_retries
                    prior_by_task[spec.index] = lineage.prior_retries
                    lineage.prior_retries = 0
                specs.append(spec)
            _outcomes, stop = pool.run(
                specs,
                control=pool_control,
                prior_retries=prior_retries,
                on_outcome=on_outcome,
                quarantine_extra=quarantine_extra,
            )
            if stop is not None:
                if not (stop == "interrupted" and stop_flag["fail"]):
                    halt = stop
                break
        save_main()
    finally:
        if own_pool:
            pool.close()

    # ---- Merge. ------------------------------------------------------
    states = {lineage.id: lineage.state() for lineage in lineages.values()}
    merged = merge_lineage_states(states.values())
    result = base_result(merged["verdict"])
    totals = merged["totals"]
    result.phase2_executions = totals["executions"]
    result.phase2_full = totals["full"]
    result.phase2_stuck = totals["stuck"]
    result.phase2_judged = totals["judged"]
    result.phase2_divergent = totals["divergent"]
    result.schedules_explored = totals["executions"]
    result.schedules_pruned = totals["pruned"]
    result.cpu_seconds = totals["seconds"]
    result.leases = totals["leases"]
    result.requeues = totals["requeues"]
    result.equivalence_classes = merged["equivalence_classes"]
    result.classes_rediscovered = merged["classes_rediscovered"]
    result.violations = merged["violations"]
    result.crash_reports = merged["crash_reports"]
    result.quarantined = merged["quarantined"]
    result.phase2_complete = merged["complete"]
    result.partition_probes = partition_probes
    result.resplits = resplits
    if halt is not None:
        result.exhausted_reason = halt
        result.phase2_complete = False
        if result.verdict == "PASS":
            result.verdict = "EXHAUSTED"
    elif not merged["complete"] and result.verdict == "PASS":
        result.verdict = "EXHAUSTED"
    result.wall_seconds = time.monotonic() - started
    for shard_id in sorted(states):
        state = states[shard_id]
        result.shards.append(
            ShardReport(
                shard=shard_id,
                verdict=state.get("verdict")
                or ("PASS" if state.get("settled") else "EXHAUSTED"),
                leases=state.get("leases") or 0,
                retries=state.get("retries") or 0,
                crashes=state.get("crashes") or 0,
                executions=state.get("executions") or 0,
                classes=len(state.get("fingerprints") or ()),
                pruned=state.get("pruned") or 0,
                seconds=state.get("seconds") or 0.0,
                opaque=bool(state.get("opaque")),
                crash_report=state.get("crash_report"),
                shard_checkpoint=state.get("shard_checkpoint"),
            )
        )
    emit("merged", {"verdict": result.verdict})
    return result


def parse_swarm_state(document: dict):
    """Turn a loaded ``kind="swarm"`` checkpoint into resume arguments.

    Returns ``(subject_info, test, config, swarm_config)``; the document
    itself is passed back to :func:`swarm_check` as *resume_document*.
    """
    from repro.core.checkpoint import CheckpointError

    try:
        subject_info = document["subject"]
        test = test_from_dict(document["test"])
        config = config_from_dict(document.get("config") or {})
        swarm = SwarmConfig.from_dict(document.get("swarm") or {})
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed swarm checkpoint: {exc}") from exc
    return subject_info, test, config, swarm
