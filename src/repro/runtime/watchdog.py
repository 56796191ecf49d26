"""Watchdog: hang-proofing for both scheduler engines.

Exactly one logical thread runs at a time, so a single operation of the
system under test that loops (or sleeps) in *uninstrumented* code — code
that never reaches a scheduling point — wedges the whole exploration:
control never comes back to the scheduler.  The step budget
(``max_steps``) cannot help because steps are only counted at
instrumented points.

The watchdog closes that gap.  When enabled, the core's stall detector
bounds the wall-clock time between scheduling events; if the running
logical thread makes no progress within :attr:`WatchdogConfig.time_limit`
seconds the execution is classified **divergent** (a third outcome next
to complete/stuck) and torn down.  Who polls the detector, and what the
teardown can reach, is the engine's mechanism:

* **baton**: the controller thread polls while it waits.  The wedged
  worker receives an asynchronously injected
  :class:`~repro.runtime.errors.ExecutionAbort` via
  ``PyThreadState_SetAsyncExc``, which breaks pure-Python loops at the
  next bytecode boundary; a worker that still does not acknowledge within
  :attr:`WatchdogConfig.abandon_timeout` seconds (it is parked inside a
  blocking C call such as ``time.sleep``) is *abandoned*: its pool slot is
  replaced with a fresh worker and the stale daemon thread is left to die
  on its own, so the pool is usable for the next execution either way.
* **coop**: one daemon thread polls and injects the same exception into
  the single engine thread.  There is no second thread to abandon a
  wedged C call from, so only divergence that executes Python bytecode is
  caught (see ``docs/PERFORMANCE.md``, "When you still need the baton
  engine").

* **serial driver** (phase 1, no engine): each watched execution runs on
  a host thread of its own and the calling thread polls, injects and
  abandons as the baton controller does.

Divergent histories are treated like the paper's stuck histories by the
checker: the operation never responded inside the observation window,
which is observationally indistinguishable from blocking.  See
``docs/ROBUSTNESS.md`` for why this does not weaken Theorem 5.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass

from repro.runtime.errors import ExecutionAbort

__all__ = ["WatchdogConfig", "interrupt_thread"]


@dataclass(frozen=True)
class WatchdogConfig:
    """Limits the scheduler enforces on a single execution's liveness.

    ``time_limit`` is the maximum wall-clock gap between two scheduling
    events (steps, baton handovers, thread completions) before the
    execution is declared divergent.  ``poll_interval`` is the controller
    wake-up granularity while waiting; ``abandon_timeout`` bounds how long
    teardown waits for each aborted worker to acknowledge before its pool
    slot is written off and replaced.
    """

    time_limit: float = 2.0
    poll_interval: float = 0.05
    abandon_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.abandon_timeout < 0:
            raise ValueError("abandon_timeout must be >= 0")


def interrupt_thread(
    thread: threading.Thread, exc: type[BaseException] = ExecutionAbort
) -> bool:
    """Asynchronously raise *exc* inside *thread* (CPython only).

    Returns True when the exception was scheduled.  Delivery happens at
    the thread's next bytecode boundary, so a pure-Python spin loop is
    interrupted promptly while a blocking C call (``time.sleep``, native
    I/O) is not — callers must pair this with a bounded wait and abandon
    the thread when it never acknowledges.
    """
    ident = thread.ident
    if ident is None or not thread.is_alive():
        return False
    set_async_exc = getattr(ctypes.pythonapi, "PyThreadState_SetAsyncExc", None)
    if set_async_exc is None:  # non-CPython: abandonment is the only recourse
        return False
    affected = set_async_exc(ctypes.c_ulong(ident), ctypes.py_object(exc))
    if affected > 1:  # pragma: no cover - defensive: bad ident matched many
        set_async_exc(ctypes.c_ulong(ident), None)
        return False
    return affected == 1
