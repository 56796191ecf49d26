"""The watch orchestrator: follow a trace, keep a verdict, stay honest.

:func:`watch_trace` is the single-process loop behind ``lineup watch``:
take a pass of the :class:`~repro.stream.tail.TraceTailer` — the bytes
the file holds now, one bounded batch at a time — feed every complete
line to the :class:`~repro.stream.engine.StreamChecker`, emit stats
between batches, and between passes decide when to stop:

* **FAIL** — the moment a return event loses linearizability; online
  failure is final, no more reading.
* **drained** — the v2 end marker (or, without ``follow``, the current
  end of file) was reached with everything consumed.
* **idle timeout** — in follow mode, no new bytes for ``idle_timeout``
  seconds: the writer is gone (crashed mid-stream if the tail is torn);
  return the verdict over what was seen, marked unfinalized.
* **LAGGED** — the checker could not drain the file for ``lag_budget``
  consecutive seconds.  An online monitor that silently falls behind is
  indistinguishable from one that works, so exceeding the budget is a
  loud verdict, not a warning.

Rotation and truncation (the tailer's exceptions) restart checking from
offset 0 of the current file; a :class:`~repro.stream.engine.PartitionUnsound`
operation restarts from 0 with partitioning off.  Both are possible
precisely because the trace is a file that can be re-read.

:func:`watch_sharded` is the multi-process coordinator: one ``"stream"``
task per shard on the :class:`~repro.exec.supervisor.WorkerPool` (each
worker tails the same file, owning the partition cells whose stable hash
lands on its index), with verdicts merged by
:func:`repro.core.verdict.worst_verdict` (``FAIL > CRASHED > LAGGED >
EXHAUSTED > PASS`` among the verdicts shards produce).  A shard that
discovers a global operation reports ``UNSOUND-PARTITION`` and the
coordinator falls back to one unpartitioned in-process watch of the
whole file.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass, field, replace

from repro.core.verdict import worst_verdict
from repro.monitor.models import ModelError, SequentialModel, get_model
from repro.monitor.trace import TraceError
from repro.stream.engine import PartitionUnsound, StreamChecker
from repro.stream.stats import StatsEmitter, maxrss_kb
from repro.stream.tail import TraceRotated, TraceTailer, TraceTruncated

__all__ = [
    "UNSOUND_PARTITION",
    "WatchConfig",
    "WatchResult",
    "watch_sharded",
    "watch_trace",
]

#: Shard-internal verdict: a global op made per-key sharding unsound.
UNSOUND_PARTITION = "UNSOUND-PARTITION"

@dataclass(frozen=True)
class WatchConfig:
    """Knobs of one watch session (single-process or one shard of many)."""

    follow: bool = False  #: keep polling for growth vs. read-once
    #: None = partition automatically when the model supports it.
    partition: bool | None = None
    shards: int = 1
    shard_index: int = 0
    lag_budget: float | None = None  #: max seconds of sustained backlog
    idle_timeout: float | None = None  #: follow mode: give up after quiet
    poll_interval: float = 0.05
    #: per return: the closure of one return may explore this many
    #: configurations, never a lifetime total.
    max_configurations: int | None = 1_000_000
    stats_out: str | None = None  #: JSONL stats path (None = no stats)
    stats_interval: float = 1.0
    start_offset: int = 0

    def to_payload(self, path: str, model: str) -> dict:
        """The JSON-able form shipped to a ``"stream"`` pool worker."""
        return {
            "path": path,
            "model": model,
            "follow": self.follow,
            "partition": self.partition,
            "shards": self.shards,
            "shard_index": self.shard_index,
            "lag_budget": self.lag_budget,
            "idle_timeout": self.idle_timeout,
            "poll_interval": self.poll_interval,
            "max_configurations": self.max_configurations,
            "stats_out": self.stats_out,
            "stats_interval": self.stats_interval,
            "start_offset": self.start_offset,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WatchConfig":
        kwargs = {
            name: payload[name]
            for name in (
                "follow",
                "partition",
                "shards",
                "shard_index",
                "lag_budget",
                "idle_timeout",
                "poll_interval",
                "max_configurations",
                "stats_out",
                "stats_interval",
                "start_offset",
            )
            if name in payload
        }
        return cls(**kwargs)


@dataclass
class WatchResult:
    """What one watch session concluded and what it saw along the way."""

    verdict: str  #: PASS/FAIL/EXHAUSTED/LAGGED (or UNSOUND-PARTITION)
    outcome: str | None  #: the v2 end marker's outcome, when reached
    finalized: bool  #: the end marker was seen and the file drained
    torn: bool  #: the final line was torn when the session ended
    restarts: int  #: rotation/truncation/unsound-partition restarts
    lag_exceeded: bool
    partitioned: bool
    counterexample: str | None
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0
    events_per_sec: float = 0.0
    shard_results: list = field(default_factory=list)  #: coordinator only

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "outcome": self.outcome,
            "finalized": self.finalized,
            "torn": self.torn,
            "restarts": self.restarts,
            "lag_exceeded": self.lag_exceeded,
            "partitioned": self.partitioned,
            "counterexample": self.counterexample,
            "stats": self.stats,
            "elapsed": self.elapsed,
            "events_per_sec": self.events_per_sec,
            "shard_results": list(self.shard_results),
        }


def watch_trace(
    path: str,
    model: SequentialModel,
    config: WatchConfig | None = None,
) -> WatchResult:
    """Watch one trace file in-process until a stopping condition."""
    config = config or WatchConfig()
    partition = (
        model.partitionable if config.partition is None else config.partition
    )
    if config.shards > 1 and not partition:
        raise ValueError("sharded watching requires a partitionable model")
    if not config.follow and not os.path.exists(path):
        raise TraceError(f"no such trace file: {path!r}")

    emitter = StatsEmitter(
        config.stats_out,
        interval=config.stats_interval,
        shard_index=config.shard_index,
    )

    def fresh(partition_now: bool, offset: int = 0) -> tuple:
        checker = StreamChecker(
            model,
            partition=partition_now,
            shards=config.shards,
            shard_index=config.shard_index,
            max_configurations=config.max_configurations,
        )
        emitter.restart()
        return checker, TraceTailer(path, offset)

    checker, tailer = fresh(partition, config.start_offset)
    started = time.monotonic()
    last_progress = started
    lag_since: float | None = None
    lag_exceeded = False
    restarts = 0

    try:
        while True:
            try:
                progressed, failed = _feed_pass(tailer, checker, emitter)
            except (TraceRotated, TraceTruncated):
                # The file is no longer the one we consumed: start over on
                # whatever the path names now.
                restarts += 1
                checker, tailer = fresh(partition)
                last_progress = time.monotonic()
                continue
            except PartitionUnsound:
                if config.shards > 1:
                    # This shard sees only part of the stream, so it cannot
                    # recheck the whole file; the coordinator must.
                    return _snapshot(
                        UNSOUND_PARTITION, checker, tailer, restarts,
                        lag_exceeded, partition, started,
                    )
                restarts += 1
                partition = False
                checker, tailer = fresh(False)
                last_progress = time.monotonic()
                continue
            now = time.monotonic()
            if progressed:
                last_progress = now
            if failed:
                break
            backlog = tailer.backlog()
            emitter.maybe_emit(checker, backlog)
            if backlog == 0:
                lag_since = None
                if checker.finalized:
                    break
                if not config.follow:
                    break
            else:
                # The budget clock runs while any backlog persists and only
                # a fully drained file resets it: consuming batches while
                # the writer stays ahead is still falling behind.
                if lag_since is None:
                    lag_since = now
                elif (
                    config.lag_budget is not None
                    and now - lag_since > config.lag_budget
                ):
                    lag_exceeded = True
                    break
                if not config.follow and not progressed:
                    break  # only a torn tail remains and nobody will mend it
            if not progressed:
                if (
                    config.follow
                    and config.idle_timeout is not None
                    and now - last_progress > config.idle_timeout
                ):
                    if not tailer.exists:
                        # A PASS over zero events of a file that never
                        # appeared would bless a typo'd path.
                        raise TraceError(
                            f"no such trace file: {path!r} (gave up after "
                            f"{config.idle_timeout}s waiting for it)"
                        )
                    break
                time.sleep(config.poll_interval)
    finally:
        emitter.emit(checker, tailer.backlog())
        emitter.close()

    verdict = checker.verdict
    if lag_exceeded and verdict == "PASS":
        verdict = "LAGGED"
    return _snapshot(
        verdict, checker, tailer, restarts, lag_exceeded, partition, started
    )


def _feed_pass(
    tailer: TraceTailer, checker: StreamChecker, emitter: StatsEmitter
) -> tuple[bool, bool]:
    """Feed *checker* one pass of *tailer*, batch by batch.

    Returns ``(progressed, failed)``: whether the pass delivered any
    line, and whether one of them lost linearizability — reading stops
    there, within the block that holds the failing line.  What the
    process holds of the backlog at any moment is one batch.
    """
    progressed = False
    with closing(tailer.batches()) as batches:
        for segments in batches:
            try:
                for segment in segments:
                    if not checker.feed(segment.obj):
                        return True, True
            except ModelError as exc:
                where = f"trace file {tailer.path!r} at byte offset {segment.start}"
                raise TraceError(f"{where}: {exc}") from None
            progressed = progressed or bool(segments)
            emitter.maybe_emit(checker, tailer.backlog())
    return progressed, False


def _snapshot(
    verdict: str,
    checker: StreamChecker,
    tailer: TraceTailer,
    restarts: int,
    lag_exceeded: bool,
    partitioned: bool,
    started: float,
) -> WatchResult:
    elapsed = max(time.monotonic() - started, 1e-9)
    stats = checker.stats()
    stats["maxrss_kb"] = maxrss_kb()
    return WatchResult(
        verdict=verdict,
        outcome=checker.outcome,
        finalized=checker.finalized and tailer.backlog() == 0,
        torn=tailer.torn,
        restarts=restarts,
        lag_exceeded=lag_exceeded,
        partitioned=partitioned,
        counterexample=checker.counterexample_text(),
        stats=stats,
        elapsed=elapsed,
        events_per_sec=checker.counters.events / elapsed,
    )


def watch_sharded(
    path: str,
    model_name: str,
    config: WatchConfig,
    *,
    workers: int | None = None,
    pool_config=None,
) -> WatchResult:
    """Fan one watch across ``config.shards`` pool workers and merge.

    Every worker tails the same trace file and checks only its own
    partition cells, so independent keys check on independent processes;
    the merge is sound by P-compositionality.  Worker crashes surface as
    a ``CRASHED`` shard verdict through the pool's quarantine machinery
    rather than a hung watch.
    """
    from repro.exec.supervisor import PoolConfig, TaskSpec, WorkerPool

    if config.shards < 2:
        raise ValueError("watch_sharded needs shards >= 2")
    get_model(model_name)  # fail fast on unknown models, before spawning
    tasks = []
    for index in range(config.shards):
        shard_config = replace(
            config,
            shard_index=index,
            # Give each shard its own stats stream; interleaved writers
            # would tear each other's lines.
            stats_out=(
                f"{config.stats_out}.shard{index}" if config.stats_out else None
            ),
        )
        tasks.append(
            TaskSpec(
                index=index,
                class_name=model_name,
                version="stream",
                test={},
                kind="stream",
                payload=shard_config.to_payload(path, model_name),
            )
        )
    pool_config = pool_config or PoolConfig(
        workers=workers or min(config.shards, max(os.cpu_count() or 2, 2))
    )
    started = time.monotonic()
    with WorkerPool(pool_config) as pool:
        outcomes, _stop = pool.run(tasks)
    shard_results = []
    for outcome in outcomes:
        summary = outcome.summary or {}
        if "trace_error" in summary:
            raise TraceError(summary["trace_error"])
        if outcome.verdict == "CRASHED" or "verdict" not in summary:
            summary = {**summary, "verdict": "CRASHED", "shard": outcome.index}
        shard_results.append(summary)
    if any(r.get("verdict") == UNSOUND_PARTITION for r in shard_results):
        # A global operation: per-key sharding is unsound for this stream.
        # Re-watch the whole file unpartitioned in this process.
        fallback = watch_trace(
            path,
            get_model(model_name),
            replace(config, partition=False, shards=1, shard_index=0),
        )
        fallback.restarts += 1
        fallback.shard_results = shard_results
        return fallback
    verdicts = [r.get("verdict", "CRASHED") for r in shard_results]
    merged = worst_verdict(verdicts)
    failing = next(
        (r for r in shard_results if r.get("verdict") == merged), {}
    )
    elapsed = max(time.monotonic() - started, 1e-9)
    totals: dict = {"shards": len(shard_results)}
    for key in ("events", "calls", "returns", "skipped", "retired", "cells"):
        totals[key] = sum(r.get("stats", {}).get(key, 0) for r in shard_results)
    for key in ("max_frontier", "max_retirement_lag", "maxrss_kb"):
        totals[key] = max(
            (r.get("stats", {}).get(key, 0) for r in shard_results), default=0
        )
    return WatchResult(
        verdict=merged,
        outcome=next(
            (r.get("outcome") for r in shard_results if r.get("outcome")), None
        ),
        finalized=all(r.get("finalized", False) for r in shard_results),
        torn=any(r.get("torn", False) for r in shard_results),
        restarts=sum(r.get("restarts", 0) for r in shard_results),
        lag_exceeded=any(r.get("lag_exceeded", False) for r in shard_results),
        partitioned=True,
        counterexample=failing.get("counterexample"),
        stats=totals,
        elapsed=elapsed,
        events_per_sec=totals["events"] / elapsed,
        shard_results=shard_results,
    )
