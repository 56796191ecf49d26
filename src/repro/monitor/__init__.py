"""Standalone linearizability monitoring engine (model-based checking).

The complement of the two-phase check: when an explicit sequential model
is known, a concurrent history is checked directly against it — no
serial-enumeration phase, no :class:`~repro.core.spec.ObservationSet`.

One engine decides: :mod:`repro.monitor.incremental`, the online closure
that ``lineup watch`` and ``lineup monitor`` run over a trace file (per
key, through :mod:`repro.stream`) and :func:`monitor_history` runs over
one phase-2 history, stuck histories included.  :mod:`repro.monitor.wgl`
is the offline Wing–Gong–Lowe search it is tested against (imported
from there, never from this package, so no command loads it), and
:mod:`repro.monitor.trace` is the JSONL trace format both commands read.
"""

from repro.monitor.dispatch import MonitorVerdict, monitor_history
from repro.monitor.models import (
    MODELS,
    ModelError,
    SequentialModel,
    get_model,
)
from repro.monitor.incremental import (
    IncrementalChecker,
    MonitorLimitError,
    OnlineCounterexample,
)
from repro.monitor.trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    DumpTraceWriter,
    LiveTraceMeta,
    LiveTraceWriter,
    TraceDecoder,
    TraceError,
    TraceScan,
    TraceSegment,
    default_trace_dir,
    iter_trace,
    load_trace,
    read_trace_header,
    scan_trace,
)

__all__ = [
    "IncrementalChecker",
    "MODELS",
    "ModelError",
    "MonitorVerdict",
    "monitor_history",
    "MonitorLimitError",
    "OnlineCounterexample",
    "SequentialModel",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "DumpTraceWriter",
    "LiveTraceMeta",
    "LiveTraceWriter",
    "TraceDecoder",
    "TraceError",
    "TraceScan",
    "TraceSegment",
    "default_trace_dir",
    "get_model",
    "iter_trace",
    "load_trace",
    "read_trace_header",
    "scan_trace",
]
