"""Process-isolated execution: supervised worker pool with crash containment.

Line-Up checks *black-box* subjects (paper Section 4), and a black box
can do worse than hang: it can call ``os._exit``, segfault in a C
extension, exhaust memory, or corrupt interpreter-global state.  PR 1's
in-process watchdog converts *hung* operations into ``divergent``
outcomes, but none of the above is survivable in-process — one hostile
operation would end the whole campaign and lose every verdict in flight.

This package runs each test's two-phase check in a sandboxed child
process instead:

* :mod:`repro.exec.protocol` — the length-prefixed JSON pipe protocol
  (tasks, heartbeats, results) between supervisor and workers;
* :mod:`repro.exec.sandbox` — the worker side: ``resource.setrlimit``
  caps, stderr capture, heartbeat thread, and the task loop (two
  kinds: ``check``, and ``shard`` — a swarm lease, a partition probe
  being one of a single execution);
* :mod:`repro.exec.supervisor` — the parent side: a :class:`WorkerPool`
  that detects worker death (nonzero exit, signal, heartbeat loss),
  retries crashed tests with exponential backoff, and **quarantines**
  repeat offenders with a ``CRASHED`` verdict and a crash-report
  artifact instead of aborting the campaign.  :func:`open_pool` opens
  the pool that campaigns and the swarm run on;
* :mod:`repro.exec.inline` — :class:`InlineExecutor`, the same
  ``run(tasks, ...) -> (outcomes, stop_reason)`` contract with no
  workers: tasks run in the caller's process, in order.  Campaigns are
  written against that contract, so in-process versus
  isolated is a choice of executor, not a second code path;
* :mod:`repro.exec.faults` — fault-injection subjects (``os._exit``,
  unbounded allocation, ``SystemExit``, ``SIGSTOP``) used by the crash
  containment test-suite and importable by spawned workers.

The design goal, per the ROADMAP's production north star: degrade
**per-test**, never per-campaign.
"""

from repro.exec.inline import InlineExecutor, open_executor
from repro.exec.protocol import ProtocolError, decode_frame, encode_frame
from repro.exec.sandbox import ResourceLimits
from repro.exec.supervisor import (
    CRASH_REPORT_FORMAT,
    PoolConfig,
    SupervisorError,
    TaskOutcome,
    TaskSpec,
    WorkerPool,
    open_pool,
    repro_command,
)

__all__ = [
    "CRASH_REPORT_FORMAT",
    "InlineExecutor",
    "PoolConfig",
    "ProtocolError",
    "ResourceLimits",
    "SupervisorError",
    "TaskOutcome",
    "TaskSpec",
    "WorkerPool",
    "decode_frame",
    "encode_frame",
    "open_executor",
    "open_pool",
    "repro_command",
]
