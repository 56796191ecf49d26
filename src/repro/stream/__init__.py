"""Streaming online monitoring: check unbounded live traces as they grow.

This package is the engine behind ``lineup watch`` — it follows a JSONL
trace *while* :class:`~repro.monitor.trace.LiveTraceWriter` is still
appending to it and keeps a rolling linearizability verdict at traffic
rate — and behind ``lineup monitor``, which runs the same loop once over
each finished file:

* :mod:`repro.stream.tail` — the tailing reader: incremental polls,
  torn-final-line re-reads, rotation/truncation detection;
* :mod:`repro.stream.engine` — :class:`StreamChecker`, routing events
  into per-partition-cell incremental checkers (the online WGL lives in
  :mod:`repro.monitor.incremental`) with memory bounded by the
  concurrency window, not the trace length;
* :mod:`repro.stream.watch` — the orchestration loop (follow, lag
  budget, restart-on-rotation and on unsound partitioning);
* :mod:`repro.stream.stats` — periodic JSONL observability samples
  (ingest rate, frontier size, retirement lag, memory high-water).

See docs/STREAMING.md for the bounded-memory argument and the lag and
partitioning semantics.
"""

from repro.stream.engine import PartitionUnsound, StreamChecker
from repro.stream.stats import StatsEmitter, maxrss_kb
from repro.stream.tail import TraceRotated, TraceTailer, TraceTruncated
from repro.stream.watch import WatchConfig, WatchResult, watch_trace

__all__ = [
    "PartitionUnsound",
    "StatsEmitter",
    "StreamChecker",
    "TraceRotated",
    "TraceTailer",
    "TraceTruncated",
    "WatchConfig",
    "WatchResult",
    "maxrss_kb",
    "watch_trace",
]
