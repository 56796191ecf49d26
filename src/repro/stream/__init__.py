"""Streaming online monitoring: check unbounded live traces as they grow.

The offline ``lineup monitor`` needs a finished trace; this package is
the online complement behind ``lineup watch`` — it follows a JSONL trace
*while* :class:`~repro.monitor.trace.LiveTraceWriter` is still appending
to it and keeps a rolling linearizability verdict at traffic rate:

* :mod:`repro.stream.tail` — the tailing reader: incremental polls,
  torn-final-line re-reads, rotation/truncation detection;
* :mod:`repro.stream.engine` — :class:`StreamChecker`, routing events
  into per-partition-cell incremental checkers (the online WGL lives in
  :mod:`repro.monitor.incremental`) with memory bounded by the
  concurrency window, not the trace length;
* :mod:`repro.stream.watch` — the orchestration loop (follow, lag
  budget, restart-on-rotation) and the sharded coordinator fanning
  partition cells across :class:`~repro.exec.supervisor.WorkerPool`
  workers;
* :mod:`repro.stream.stats` — periodic JSONL observability samples
  (ingest rate, frontier size, retirement lag, memory high-water).

See docs/STREAMING.md for the bounded-memory argument and the lag and
sharding semantics.
"""

from repro.stream.engine import PartitionUnsound, StreamChecker, stable_shard
from repro.stream.stats import StatsEmitter, maxrss_kb
from repro.stream.tail import TraceRotated, TraceTailer, TraceTruncated
from repro.stream.watch import (
    UNSOUND_PARTITION,
    WatchConfig,
    WatchResult,
    watch_sharded,
    watch_trace,
)
from repro.stream.worker import run_stream_task

__all__ = [
    "PartitionUnsound",
    "StatsEmitter",
    "StreamChecker",
    "TraceRotated",
    "TraceTailer",
    "TraceTruncated",
    "UNSOUND_PARTITION",
    "WatchConfig",
    "WatchResult",
    "maxrss_kb",
    "run_stream_task",
    "stable_shard",
    "watch_sharded",
    "watch_trace",
]
