"""Standalone linearizability monitoring engine (model-based checking).

The complement of the two-phase check: when an explicit sequential model
is known, a concurrent history is checked directly against it — no
serial-enumeration phase, no :class:`~repro.core.spec.ObservationSet`.

Engines, fastest-applicable first:

* :mod:`repro.monitor.specialized` — log-linear decrease-and-conquer
  checkers for unambiguous queue/register/set histories.
* :mod:`repro.monitor.compositional` — P-compositionality: partition a
  history per key/element and monitor each (much smaller) cell.
* :mod:`repro.monitor.wgl` — the general Wing–Gong–Lowe search with the
  memoized configuration cache; always applicable.

:func:`check_history_against_model` dispatches between them, and
:mod:`repro.monitor.trace` is the offline JSONL trace format the
``lineup monitor`` subcommand reads.
"""

from repro.monitor.compositional import compositional_check
from repro.monitor.dispatch import (
    ENGINES,
    MonitorVerdict,
    check_history_against_model,
    monitor_history,
)
from repro.monitor.models import (
    MODELS,
    ModelError,
    SequentialModel,
    get_model,
    model_names,
)
from repro.monitor.specialized import specialized_check
from repro.monitor.incremental import (
    IncrementalChecker,
    OnlineCounterexample,
    OnlineResult,
)
from repro.monitor.trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TRACE_VERSION_LIVE,
    LiveTraceMeta,
    LiveTraceWriter,
    TraceDecoder,
    TraceError,
    TraceScan,
    TraceSegment,
    TraceWriter,
    default_trace_path,
    iter_trace,
    load_trace,
    read_trace_header,
    scan_trace,
)
from repro.monitor.wgl import (
    MonitorCounterexample,
    MonitorLimitError,
    MonitorResult,
    StuckMonitorResult,
    check_stuck_history_model,
    wgl_check,
)

__all__ = [
    "ENGINES",
    "IncrementalChecker",
    "MODELS",
    "ModelError",
    "MonitorVerdict",
    "monitor_history",
    "MonitorCounterexample",
    "MonitorLimitError",
    "MonitorResult",
    "OnlineCounterexample",
    "OnlineResult",
    "SequentialModel",
    "StuckMonitorResult",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TRACE_VERSION_LIVE",
    "LiveTraceMeta",
    "LiveTraceWriter",
    "TraceDecoder",
    "TraceError",
    "TraceScan",
    "TraceSegment",
    "TraceWriter",
    "check_history_against_model",
    "check_stuck_history_model",
    "compositional_check",
    "default_trace_path",
    "get_model",
    "iter_trace",
    "load_trace",
    "read_trace_header",
    "model_names",
    "scan_trace",
    "specialized_check",
    "wgl_check",
]
