"""Worker-side execution of swarm tasks (probe + shard task kinds).

These run inside the :mod:`repro.exec.sandbox` worker process — the
entire point is that a subject which crashes, wedges, or exhausts
memory while probing or exploring a shard kills a *worker*, and the
supervisor's lease/retry/quarantine machinery contains the damage.

A shard task runs one **lease**: at most ``lease_executions``
executions of the shard's frontier, then reports the remaining frontier
snapshot back so the coordinator can re-dispatch (or re-split) it.  The
verdict of a lease is:

* ``FAIL`` — a violation was found (a proof per Theorem 5; the swarm
  stops),
* ``PASS`` — the shard's subtree is exhausted with no violation,
* ``PARTIAL`` — the lease (or an execution cap) expired with frontier
  left; ``summary["remaining"]`` carries the resume point.

Violations are rendered to text *in the worker* (the coordinator never
rebuilds the history objects), and fingerprints travel as digest lists
so the coordinator can union them into the global equivalence-class
count.
"""

from __future__ import annotations

import time

__all__ = ["run_probe_task", "run_shard_task"]


def run_probe_task(spec: dict) -> dict:
    """Probe one decision prefix; reply with its children (or leaf)."""
    from repro.core.harness import TestHarness
    from repro.exec.sandbox import _resolve_subject
    from repro.swarm.partition import expand_prefix

    subject, test, config = _resolve_subject(spec)
    prefix = (spec.get("payload") or {}).get("prefix") or []
    with TestHarness.from_config(subject, config) as harness:
        children = expand_prefix(harness, test, config, prefix)
    return {
        "verdict": "PASS",
        "summary": {"kind": "probe", "prefix": prefix, "children": children},
    }


def run_shard_task(spec: dict) -> dict:
    """Run one lease of a shard's frontier against the observation set."""
    from repro.core.budget import ExplorationBudget, ExplorationControl
    from repro.core.checker import check_against_observations
    from repro.core.harness import TestHarness
    from repro.core.observations import observations_from_xml
    from repro.core.report import render_violation
    from repro.exec.sandbox import _resolve_subject
    from repro.reduction import FingerprintSet
    from repro.runtime.strategies import strategy_from_snapshot

    subject, test, config = _resolve_subject(spec)
    payload = spec.get("payload") or {}
    observations = observations_from_xml(payload["observations"])
    strategy = strategy_from_snapshot(payload["strategy"])
    # The restored counters are cumulative across leases; meter this
    # lease by deltas so the coordinator can sum without double counting.
    base_pruned = getattr(strategy, "pruned", 0)
    control = None
    lease = payload.get("lease_executions")
    if lease:
        control = ExplorationControl(
            budget=ExplorationBudget(max_executions=int(lease))
        )
    fingerprints = FingerprintSet()
    started = time.perf_counter()
    with TestHarness.from_config(subject, config) as harness:
        result = check_against_observations(
            harness,
            test,
            observations,
            config,
            control=control,
            strategy=strategy,
            fingerprints=fingerprints,
        )
    remaining = strategy.snapshot() if strategy.more() else None
    if result.failed:
        verdict = "FAIL"
    elif remaining is None:
        verdict = "PASS"
    else:
        verdict = "PARTIAL"
    summary = {
        "kind": "shard",
        "shard": payload.get("shard"),
        "executions": result.phase2_executions,
        "full": result.phase2_full,
        "stuck": result.phase2_stuck,
        "judged": result.phase2_judged,
        "divergent": result.phase2_divergent,
        "seconds": time.perf_counter() - started,
        "pruned": max(0, result.schedules_pruned - base_pruned),
        "fingerprints": fingerprints.snapshot(),
        "violations": [
            {"kind": v.kind, "rendered": render_violation(v, observations)}
            for v in result.violations
        ],
        "remaining": remaining,
    }
    return {"verdict": verdict, "summary": summary}
