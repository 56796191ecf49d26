"""Sharded-exploration benchmark: swarm vs single-process, plus a
fault-injected smoke mode.

For each shard count the same exhaustive BoundedBuffer check runs once
single-process (the baseline `check()`) and once sharded across the
worker pool, asserting the *exact* same verdict, execution count, and
distinct-history (equivalence-class) count — the correctness half of
the swarm's contract.  Wall-clock per configuration is recorded to
``BENCH_swarm.json`` so perf regressions in the dispatch/merge path are
visible across commits; near-linear speedup is only expected up to the
machine's core count (on a single-core CI runner the sharded runs
mostly measure supervision overhead, so no speedup is asserted — the
snapshot is the artifact).

``--kill-worker`` additionally SIGKILLs one busy worker mid-run and
asserts the answer still does not move: the CI sharded smoke job runs
``--quick --kill-worker`` with ``--shards 4 --workers 2``.

The ``pool_start`` section is the pool's start-up cost under each start
method — seconds from ``WorkerPool(`` to the first result of a trivial
task, ``fork`` and ``spawn`` alternating in this one process, medians of
three — with the assertion that a forked worker is up in at most half
the time of a spawned one (the ratio reads ≈ 0.15–0.2: the gate is a ratio
of two measurements made side by side, not a wall-clock bound).
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import sys
import threading
import time

from repro.core import FiniteTest, Invocation
from repro.core.checker import CheckConfig, check
from repro.core.checkpoint import config_to_dict, test_to_dict
from repro.core.harness import SystemUnderTest
from repro.exec.faults import get_class
from repro.exec.supervisor import PoolConfig, TaskSpec, WorkerPool
from repro.swarm import SwarmConfig, swarm_check

PROVIDER = "repro.exec.faults"


def inv(method, *args):
    return Invocation(method, args)


#: name -> (version, test).  Exhaustive trees of increasing size; the
#: quick matrix must stay CI-cheap, the full one big enough that lease
#: dispatch amortizes.
WORKLOADS = {
    "quick": ("beta", FiniteTest.of([[inv("Put", 1), inv("Take")], [inv("TryTake")]])),
    "full": ("pre", FiniteTest.of([[inv("Put", 1)], [inv("Take")], [inv("Put", 2)]])),
}


def pool_start(rounds=3):
    """Start-up cost of the pool per start method; None without ``fork``."""
    if not hasattr(os, "fork"):
        return None
    task = TaskSpec(
        0, "GoodRegister", "pre",
        test_to_dict(FiniteTest.of([[inv("Get")]])),
        config_to_dict(
            CheckConfig(phase2_strategy="random", phase2_executions=10, seed=1)
        ),
        PROVIDER,
    )
    seconds = {"fork": [], "spawn": []}
    for _ in range(rounds):
        for method, samples in seconds.items():
            t0 = time.perf_counter()
            with WorkerPool(PoolConfig(workers=1, start_method=method)) as pool:
                (outcome,), _ = pool.run([task])
                samples.append(time.perf_counter() - t0)
                (worker,) = pool._workers
            assert outcome.verdict == "PASS", outcome
            # A pool asked to fork spawns when its caller has threads.
            assert worker.start_method == method, (worker.start_method, method)
    fork, spawn = (statistics.median(seconds[m]) for m in ("fork", "spawn"))
    assert fork <= 0.5 * spawn, (
        f"a forked worker took {fork:.3f}s to its first result, "
        f"a spawned one {spawn:.3f}s"
    )
    return {
        "rounds": rounds,
        "fork_seconds": fork,
        "spawn_seconds": spawn,
        "fork_over_spawn": fork / spawn,
    }


def single_process(version, test, config):
    entry = get_class("BoundedBuffer")
    subject = SystemUnderTest(entry.factory(version), f"BoundedBuffer({version})")
    t0 = time.perf_counter()
    result = check(subject, test, config)
    return {
        "seconds": time.perf_counter() - t0,
        "verdict": result.verdict,
        "executions": result.phase2_executions,
        "classes": result.equivalence_classes,
    }


def _stalker(killed):
    """An on_event hook that SIGKILLs one busy worker mid-run."""

    def watch(pool):
        deadline = time.monotonic() + 60.0
        while not killed and time.monotonic() < deadline:
            for worker in list(pool._workers):
                if worker.dead or worker.task is None:
                    continue
                process = worker.process
                if process.pid and process.is_alive():
                    try:
                        os.kill(process.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        continue
                    killed.append(process.pid)
                    return
            time.sleep(0.005)

    def on_event(name, payload):
        if name == "partitioned":
            threading.Thread(
                target=watch, args=(payload["pool"],), daemon=True
            ).start()

    return on_event


def sharded(version, test, config, shards, workers, lease, kill_worker):
    killed: list[int] = []
    on_event = _stalker(killed) if kill_worker else None
    t0 = time.perf_counter()
    result = swarm_check(
        "BoundedBuffer",
        version,
        test,
        config,
        provider=PROVIDER,
        swarm=SwarmConfig(shards=shards, lease_executions=lease),
        pool_config=PoolConfig(workers=workers, backoff_seconds=0.01),
        on_event=on_event,
    )
    return {
        "seconds": time.perf_counter() - t0,
        "verdict": result.verdict,
        "executions": result.phase2_executions,
        "classes": result.equivalence_classes,
        "shards": shards,
        "workers": workers,
        "lease": lease,
        "leases": result.leases,
        "requeues": result.requeues,
        "resplits": result.resplits,
        "worker_killed": bool(killed),
    }


def run(mode, shard_counts, workers, lease, kill_worker):
    version, test = WORKLOADS[mode]
    config = CheckConfig()
    baseline = single_process(version, test, config)
    rows = []
    for shards in shard_counts:
        row = sharded(version, test, config, shards, workers, lease, kill_worker)
        # The contract: sharding (even with a murdered worker) never
        # changes the answer for reduction="none".
        assert row["verdict"] == baseline["verdict"], row
        assert row["executions"] == baseline["executions"], row
        assert row["classes"] == baseline["classes"], row
        if kill_worker:
            assert row["worker_killed"], "no busy worker was available to kill"
        rows.append(row)
    return baseline, rows


def print_table(baseline, rows):
    print(
        f"\n{'config':>16s} {'seconds':>8s} {'speedup':>8s} "
        f"{'executions':>11s} {'classes':>8s} {'requeues':>9s}"
    )
    print(
        f"{'single-process':>16s} {baseline['seconds']:8.2f} {'1.00x':>8s} "
        f"{baseline['executions']:11d} {baseline['classes']:8d} {'-':>9s}"
    )
    for row in rows:
        label = f"{row['shards']}sh/{row['workers']}w"
        speedup = baseline["seconds"] / row["seconds"] if row["seconds"] else 0.0
        print(
            f"{label:>16s} {row['seconds']:8.2f} {speedup:7.2f}x "
            f"{row['executions']:11d} {row['classes']:8d} {row['requeues']:9d}"
        )


def write_snapshot(path, mode, baseline, rows, start):
    import benchlib

    benchlib.write_snapshot(
        path,
        "swarm",
        {
            "mode": mode,
            "single_process": baseline,
            "sharded": rows,
            "pool_start": start,
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small tree, CI smoke")
    parser.add_argument("--shards", type=int, nargs="*", default=None,
                        help="shard counts to measure (default: 2 4)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--lease", type=int, default=64)
    parser.add_argument("--kill-worker", action="store_true",
                        help="SIGKILL one busy worker mid-run per configuration")
    parser.add_argument("--out", default="BENCH_swarm.json",
                        help="perf snapshot path (default BENCH_swarm.json)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    shard_counts = args.shards if args.shards else [2, 4]
    # First: --kill-worker's stalker is a thread, and a threaded caller's
    # pool does not fork.
    start = pool_start()
    baseline, rows = run(mode, shard_counts, args.workers, args.lease,
                         args.kill_worker)
    print_table(baseline, rows)
    if start:
        print(
            f"\npool start to first result: fork {start['fork_seconds']:.3f}s, "
            f"spawn {start['spawn_seconds']:.3f}s "
            f"({start['fork_over_spawn']:.2f}x)"
        )
    write_snapshot(args.out, mode, baseline, rows, start)
    suffix = " with one worker SIGKILLed mid-run" if args.kill_worker else ""
    print(f"\nsmoke PASS: sharded == single-process exactly{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
