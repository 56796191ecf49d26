"""Observability for the streaming monitor: periodic JSONL stat lines.

A watch session that runs for hours is only trustworthy if its health is
visible while it runs: is ingest keeping up with the writer, is the
frontier (the concurrency window) actually staying bounded, how far
behind a return does retirement trail.  :class:`StatsEmitter` samples
the :class:`~repro.stream.engine.StreamChecker` periodically and appends
one JSON object per line to a stats file — the same
line-per-observation, crash-tolerant shape as the trace format itself,
so the stats stream can be tailed by anything that tails the trace.

Each line carries::

    {"ts": <unix time>, "shard": <index>, "elapsed": <secs since start>,
     "events": ..., "ingested_per_sec": <rate since the last line>,
     "backlog_bytes": <bytes written but not yet consumed>,
     "frontier": ..., "live_configs": ..., "retired": ...,
     "max_frontier": ..., "max_retirement_lag": ...,
     "maxrss_kb": <process memory high-water>, "verdict": ...}

``maxrss_kb`` is ``ru_maxrss`` (kilobytes on Linux), the honest memory
high-water for the bounded-memory claim: it can only ratchet up, so a
flat series over a growing trace *is* the evidence.
"""

from __future__ import annotations

import json
import resource
import time

__all__ = ["StatsEmitter", "maxrss_kb"]


def maxrss_kb() -> int:
    """Process memory high-water in KiB (``ru_maxrss``; Linux units)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class StatsEmitter:
    """Append periodic stat lines for one watch session to a JSONL file."""

    def __init__(
        self,
        path: str | None,
        *,
        interval: float = 1.0,
        shard_index: int = 0,
    ) -> None:
        self.path = path
        self.interval = interval
        self.shard_index = shard_index
        self._handle = None
        self._started = time.monotonic()
        self._last_emit = self._started
        self._last_events = 0
        self.emitted = 0

    def restart(self) -> None:
        """A fresh checker took over: its event count starts from zero."""
        self._last_events = 0

    def maybe_emit(self, checker, backlog_bytes: int = 0) -> None:
        """Emit a line when the configured interval elapsed."""
        if self.path is None:
            return
        now = time.monotonic()
        if now - self._last_emit < self.interval:
            return
        self.emit(checker, backlog_bytes, now=now)

    def emit(self, checker, backlog_bytes: int = 0, now: float | None = None) -> None:
        """Emit one stat line unconditionally (also used for the final line)."""
        if self.path is None:
            return
        if now is None:
            now = time.monotonic()
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        events = checker.counters.events
        window = max(now - self._last_emit, 1e-9)
        line = {
            "ts": time.time(),
            "shard": self.shard_index,
            "elapsed": round(now - self._started, 6),
            "ingested_per_sec": round((events - self._last_events) / window, 3),
            "backlog_bytes": backlog_bytes,
            "maxrss_kb": maxrss_kb(),
            **checker.stats(),
        }
        self._handle.write(json.dumps(line, default=repr) + "\n")
        self._handle.flush()
        self._last_emit = now
        self._last_events = events
        self.emitted += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
