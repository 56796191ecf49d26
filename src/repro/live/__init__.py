"""Live-service checking: record a real service, check it offline.

The cooperative scheduler (:mod:`repro.exec`) owns its threads and can
enumerate their interleavings; a live service cannot be scheduled at
all.  This subsystem is the other end of the spectrum: N concurrent
client sessions drive a service over the wire in real time, a
wall-clock recorder captures every invocation/response interval into a
crash-safe v2 JSONL trace, and the recorded history is checked offline
by the :mod:`repro.monitor` engines.

Layers, bottom up:

* :mod:`repro.live.transport` — typed failure split: pre-invocation
  :class:`~repro.live.transport.ConnectFailed` (safe to retry) vs
  post-invocation :class:`~repro.live.transport.AmbiguousFailure`
  (never retried; recorded as an indeterminate/pending operation).
* :mod:`repro.live.recorder` — monotonic-clock recording with logical
  thread retirement after an indeterminate operation.
* :mod:`repro.live.session` — the client worker threads, with jittered
  exponential backoff on connection establishment.
* :mod:`repro.live.chaos` — deterministic fault-injection proxy
  (latency, drop, disconnect, refuse, SUT kill).
* :mod:`repro.live.refsut` — the in-repo HTTP reference SUT (correct
  and seeded-buggy variants of counter/queue/register).
* :mod:`repro.live.runner` — campaign orchestration, graceful
  degradation when the service dies, and the offline verdict.
"""

from repro.live.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    ChaosTransport,
    SutKiller,
    parse_chaos,
)
from repro.live.recorder import LiveRecorder
from repro.live.refsut import (
    VARIANTS,
    RefSutProcess,
    start_refsut_process,
)
from repro.live.runner import (
    LiveConfig,
    LiveResult,
    render_live_result,
    run_live,
)
from repro.live.session import Session, SessionConfig, SessionStats, make_workload
from repro.live.transport import (
    AmbiguousFailure,
    ConnectFailed,
    HttpTransport,
    Transport,
    TransportError,
)

__all__ = [
    "AmbiguousFailure",
    "CHAOS_MODES",
    "ChaosConfig",
    "ChaosTransport",
    "ConnectFailed",
    "HttpTransport",
    "LiveConfig",
    "LiveRecorder",
    "LiveResult",
    "RefSutProcess",
    "Session",
    "SessionConfig",
    "SessionStats",
    "SutKiller",
    "Transport",
    "TransportError",
    "VARIANTS",
    "make_workload",
    "parse_chaos",
    "render_live_result",
    "run_live",
    "start_refsut_process",
]
