"""Worker-side entry point for the ``"stream"`` pool task kind.

One task = one shard of a sharded watch: the payload (built by
:meth:`repro.stream.watch.WatchConfig.to_payload`) names the trace file,
the model, and this shard's index; the worker runs the ordinary
:func:`~repro.stream.watch.watch_trace` loop with per-cell shard
filtering and ships the :class:`~repro.stream.watch.WatchResult` back as
the task summary.  The supervisor's crash machinery needs nothing
special: a shard that dies mid-watch is retried from offset 0 — the
trace is a file, so re-reading it reproduces the shard's entire input.
Nor is a trace the shard cannot read a crash to retry: the
``TraceError`` text is the summary and the coordinator raises it again.
"""

from __future__ import annotations

from repro.monitor.models import get_model
from repro.monitor.trace import TraceError
from repro.stream.watch import WatchConfig, watch_trace

__all__ = ["run_stream_task"]


def run_stream_task(spec: dict) -> dict:
    """Run one shard of a watch inside a pool worker."""
    payload = spec.get("payload") or {}
    model = get_model(payload["model"])
    config = WatchConfig.from_payload(payload)
    try:
        result = watch_trace(payload["path"], model, config)
    except TraceError as exc:
        return {"verdict": "TRACE-ERROR", "summary": {"trace_error": str(exc)}}
    summary = result.to_dict()
    summary["shard"] = config.shard_index
    return {"verdict": result.verdict, "summary": summary}
