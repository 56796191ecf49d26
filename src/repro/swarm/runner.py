"""The swarm coordinator: partition, lease, steal, merge, survive.

One sharded check proceeds in four phases:

1. **Phase 1** runs in the coordinator (serial enumeration is the cheap,
   deterministic part, and its nondeterminism FAIL needs no sharding).
2. **Partition**: decision prefixes are probed *in workers* (a subject
   that crashes under some interleaving must kill a worker, never the
   coordinator).  A probe is a shard lease of one execution of the
   prefix's plain DFS, and the stack it returns names the children; a
   prefix whose probe crashes the worker becomes an *opaque* shard
   dispatched whole, contained by the lease machinery.
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

import argparse
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.command import Outcome, UsageError
from repro.core.budget import ExplorationControl
from repro.core.checker import (
    CheckConfig,
    _control_for,
    _run_phase1,
    restore_phase2_tally,
    sum_tallies,
)
from repro.core.checkpoint import (
    build_check_state,
    checkpoint_subject,
    config_from_dict,
    config_to_dict,
    save_checkpoint,
    subject_record,
    test_from_dict,
    test_to_dict,
)
from repro.core.harness import Phase1Stats, SystemUnderTest, TestHarness
from repro.core.observations import observations_from_xml, observations_to_xml
from repro.exec.supervisor import (
    NONDETERMINISTIC_VERDICT,
    PoolConfig,
    TaskSpec,
    WorkerPool,
    open_pool,
)
from repro.structures.registry import resolve_class
from repro.swarm.merge import (
    LEASE_TALLY,
    SWARM_KIND,
    lineage_verdict,
    load_shard_result,
    merge_lineage_states,
    save_shard_result,
    shard_result_path,
)
from repro.swarm.partition import (
    OPAQUE,
    children_from_lease,
    partition_prefixes,
    prefix_snapshot,
    shard_snapshot,
    split_shard_snapshot,
)
from repro.swarm.report import (
    ShardReport,
    SwarmResult,
    render_swarm_result,
    shard_count,
    swarm_result_to_dict,
)

__all__ = ["SwarmConfig", "resume_swarm", "swarm_check", "swarm_command"]

#: Lease verdicts that settle a lineage for good.
_TERMINAL = ("PASS", "FAIL", NONDETERMINISTIC_VERDICT, "CRASHED")


#: Partition into ``shards * _OVER_PARTITION`` prefixes so the deal is
#: balanced and work stealing has slack to redistribute.
_OVER_PARTITION = 3


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
        #: crashed leases re-dispatched (``retries`` and ``requeues``
        #: in the shard file, which name the same count).
        self.retries = 0
        self.crashes = 0
        self.leases = 0
        #: task index -> that lease's final summary.  A flaky-guard
        #: amendment replaces its predecessor, so each lease's subtree
        #: counts once.
        self.summaries: dict[int, dict] = {}
        #: what the lineage had produced when its shard file was written
        #: (empty for a fresh lineage).
        self.restored: dict = {}
        self.crash_report: str | None = None
        self.shard_checkpoint: str | None = None
        #: crash-retry counter carried into the next dispatch (used on
        #: resume so a quarantined shard gets exactly one fresh attempt).
        self.prior_retries = 0

    def totals(self) -> dict:
        """Coverage produced so far: the restored totals plus every
        lease's summary."""
        parts = [self.restored, *map(self.summaries.get, sorted(self.summaries))]
        digests = {d for part in parts for d in part.get("fingerprints") or ()}
        return {
            **sum_tallies(parts, LEASE_TALLY),
            "fingerprints": sorted(digests),
            "violations": [v for part in parts for v in part.get("violations") or ()],
        }

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
            "requeues": self.retries,
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
        lineage.crash_report = state.get("crash_report")
        lineage.shard_checkpoint = state.get("shard_checkpoint")
        lineage.restored = state
        return lineage


def validate_config(config: CheckConfig) -> None:
    """Raise ValueError when *config* asks for what sharding cannot do."""
    if config.phase2_strategy != "dfs":
        raise ValueError(
            "sharded exploration partitions a DFS frontier; "
            f"phase2_strategy {config.phase2_strategy!r} is not shardable "
            "(use --shards with the default dfs strategy)"
        )
    if config.model is not None:
        raise ValueError(
            "sharded exploration supports the observations backend only"
        )
    if config.dump_traces:
        raise ValueError(
            "--dump-traces is not supported with --shards (every lease "
            "would clear and renumber the same dump directory)"
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
    workers.  Probes and leases run on *pool*, the caller's open
    :class:`WorkerPool` (left open).  *resume_document* is a loaded
    ``kind="swarm"`` checkpoint; surviving shard results are merged in
    and only unsettled (or quarantined) lineages are re-dispatched.
    """
    if pool is None:
        # Only perfbench/layers.py's traced check_sharded pass still names
        # *pool_config* instead of opening a pool; this branch and the
        # keyword go with the next change to the benchmark.
        with WorkerPool(pool_config) as owned:
            return swarm_check(
                class_name, version, test, config, provider=provider,
                swarm=swarm, pool=owned, control=control,
                checkpoint_path=checkpoint_path,
                resume_document=resume_document, on_event=on_event,
            )
    cfg = config or CheckConfig()
    validate_config(cfg)
    swarm = swarm or SwarmConfig()
    started = time.monotonic()

    entry = resolve_class(class_name, provider)
    subject_name = f"{entry.name}({version})"

    control = _control_for(cfg, control)
    if control is not None:
        if resume_document is not None:
            control.restore(resume_document.get("budget"))
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
        stats = Phase1Stats.from_dict(resume_document.get("phase1") or {})
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

    # ---- Spec plumbing. ---------------------------------------------
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

    def lease_spec(
        strategy: dict, executions: int, shard: int | None = None
    ) -> TaskSpec:
        """A lease of at most *executions* executions of *strategy*, for
        lineage *shard* (a partition probe belongs to none)."""
        return TaskSpec(
            index=next(task_counter),
            class_name=class_name,
            version=version,
            test=test_dict,
            config=worker_config,
            provider=provider,
            kind="shard",
            payload={
                "shard": shard,
                "strategy": strategy,
                "observations": observations_xml,
                "lease_executions": executions,
            },
            swarm=swarm_args,
        )

    stop_flag = {"fail": False}

    def pool_stop() -> bool:
        return stop_flag["fail"] or bool(
            control is not None and control.stop is not None and control.stop()
        )

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
                "subject": subject_record(class_name, version, provider),
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
                "phase1": stats.to_dict(),
                "phase1_seconds": phase1_seconds,
                "observations": observations_xml,
                "budget": control.snapshot() if control else None,
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
    # ---- Partition by probing decision prefixes in workers. ----------
    if not lineages:

        def probe_round(frontier: list) -> tuple:
            nonlocal partition_probes
            # A probe is a lease of one execution of the prefix's plain
            # DFS.  Its tally is not merged: the lineage that owns the
            # subtree runs that execution again.
            specs = [
                lease_spec(prefix_snapshot(cfg, prefix, "none"), 1)
                for prefix in frontier
            ]
            position = {spec.index: i for i, spec in enumerate(specs)}
            partition_probes += len(specs)
            outcomes, stop = pool.run(specs, control=pool_control)
            # A subtree whose first execution kills workers is not
            # probed again: it is dispatched whole, and the lease
            # machinery contains it.
            return [
                (
                    position[outcome.index],
                    OPAQUE
                    if outcome.crashed
                    else children_from_lease(
                        frontier[position[outcome.index]],
                        (outcome.summary or {}).get("remaining"),
                    ),
                )
                for outcome in outcomes
            ], stop

        plain, opaque, halt = partition_prefixes(
            probe_round, swarm.shards * _OVER_PARTITION
        )
        # Deal splittable prefixes round-robin into `shards`
        # lineages; opaque prefixes get a lineage each so their
        # quarantine never takes healthy subtrees with it.
        slices = [(plain[i :: swarm.shards], False) for i in range(swarm.shards)]
        slices += [([prefix], True) for prefix in opaque]
        for shard_id, (bucket, unsplit) in enumerate(s for s in slices if s[0]):
            lineages[shard_id] = _Lineage(
                shard_id, shard_snapshot(cfg, bucket), unsplit
            )
            save_shard(lineages[shard_id])
        save_main()
        if on_event is not None:
            on_event(
                "partitioned",
                {
                    "prefixes": len(plain) + len(opaque),
                    "shards": len(lineages),
                    "probes": partition_probes,
                    "pool": pool,
                },
            )

    # ---- Lease rounds. -------------------------------------------
    quarantine_paths: dict[int, str] = {}
    by_task: dict[int, _Lineage] = {}

    def quarantine_extra(spec: TaskSpec) -> dict | None:
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
        state["subject"] = subject_record(class_name, version, provider)
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
        first = outcome.index not in lineage.summaries
        lineage.summaries[outcome.index] = outcome.summary or {}
        if first:
            # Every crash of this dispatch was re-dispatched but one that
            # spent the retry budget (``outcome.retries`` counts crashes,
            # a resumed lease's restored ones included).
            crashes = len(outcome.crashes)
            redispatched = crashes - (
                crashes > 0 and outcome.retries > pool.config.max_retries
            )
            lineage.leases += 1
            lineage.retries += redispatched
            lineage.crashes += crashes
            if outcome.verdict == "PARTIAL":
                lineage.snapshot = outcome.summary["remaining"]
            elif outcome.verdict in _TERMINAL:
                lineage.settled = True
                lineage.verdict = outcome.verdict
                if outcome.verdict == "CRASHED":
                    # The lease-start frontier stays: it is what a later
                    # `lineup resume` re-dispatches.
                    lineage.crash_report = outcome.crash_report
                    lineage.shard_checkpoint = quarantine_paths.get(
                        outcome.index
                    )
                else:
                    lineage.snapshot = None
            if control is not None and control.meter is not None:
                control.meter.executions += int(
                    lineage.summaries[outcome.index].get("executions") or 0
                )
        else:
            # Flaky-guard amendment: the re-run may have changed the
            # lease's verdict (FAIL -> nondeterministic-verdict).
            if lineage.settled and outcome.verdict in _TERMINAL:
                lineage.verdict = outcome.verdict
        if outcome.verdict in ("FAIL", NONDETERMINISTIC_VERDICT):
            stop_flag["fail"] = True
        save_shard(lineage)

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
        capacity = pool.worker_limit
        while len(active) < capacity:
            candidate = max(
                active,
                key=lambda lineage: len(lineage.snapshot.get("pending") or ())
                + bool(lineage.snapshot.get("current")),
            )
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
            resplits += len(splits) - 1
            save_main()

        prior_retries: dict[int, int] = {}
        specs = []
        for lineage in active:
            spec = lease_spec(
                lineage.snapshot, swarm.lease_executions, lineage.id
            )
            by_task[spec.index] = lineage
            if lineage.prior_retries:
                prior_retries[spec.index] = lineage.prior_retries
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

    # ---- Merge. ------------------------------------------------------
    states = {lineage.id: lineage.state() for lineage in lineages.values()}
    merged = merge_lineage_states(states.values())
    result = base_result(merged["verdict"])
    totals = merged["totals"]
    restore_phase2_tally(result, totals)
    result.schedules_explored = totals["executions"]
    result.schedules_pruned = totals["pruned"]
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
                verdict=lineage_verdict(state),
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


def swarm_command(
    args: argparse.Namespace, entry, test, config: CheckConfig, stop
) -> Outcome:
    """``check --shards``: the parsed check, sharded on the one pool."""
    if args.relaxed:
        raise UsageError("--relaxed is not supported with --shards")
    if args.minimize:
        raise UsageError(
            "--minimize is not supported with --shards (re-run the "
            "failing test without --shards to minimize it)"
        )
    if not args.json:
        shards = shard_count(args.shards)
        print(f"Checking {entry.name}({args.version}) across {shards} on:")
        print(test.render_matrix())
        print()
    return _run_swarm(
        entry.name, args.version, test, config, stop,
        provider=args.provider,
        swarm=SwarmConfig(shards=args.shards, lease_executions=args.lease),
        pool_params=vars(args),
        checkpoint=args.checkpoint,
    )


def resume_swarm(document: dict, path: str, stop) -> Outcome:
    entry, version, provider = checkpoint_subject(document)
    _subject, test, config, swarm = parse_swarm_state(document)
    settled = len(document.get("shard_files") or {})
    print(
        f"Resuming swarm check of {entry.name}({version}) from {path} "
        f"({settled} shard file(s) on disk)"
    )
    print(test.render_matrix())
    print()
    return _run_swarm(
        entry.name, version, test, config, stop,
        provider=provider,
        swarm=swarm,
        pool_params=document.get("pool") or {},
        checkpoint=path,
        resume_document=document,
    )


def _run_swarm(
    class_name: str,
    version: str,
    test,
    config: CheckConfig,
    stop,
    *,
    provider: str | None,
    swarm: SwarmConfig,
    pool_params: dict,
    checkpoint: str | None,
    resume_document: dict | None = None,
) -> Outcome:
    """:func:`swarm_check` on a pool opened from *pool_params*: the
    isolation flags, or a swarm checkpoint's ``pool`` record."""
    try:
        validate_config(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with open_pool(pool_params) as pool:
        result = swarm_check(
            class_name,
            version,
            test,
            config,
            provider=provider,
            swarm=swarm,
            pool=pool,
            control=ExplorationControl(budget=config.budget, stop=stop),
            checkpoint_path=checkpoint,
            resume_document=resume_document,
        )
    # The reason is checked first: an interrupted swarm exits 130 even
    # when a shard had already failed.
    return Outcome(
        result.verdict,
        partial(render_swarm_result, result),
        partial(swarm_result_to_dict, result),
        interrupted=result.exhausted_reason == "interrupted",
        resume=None if result.phase2_complete else checkpoint,
    )
