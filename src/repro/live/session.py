"""Concurrent client sessions: the live campaign's worker threads.

Each :class:`Session` drives one logical client against the service:
generate an invocation from the model's workload, establish a
connection (with **jittered exponential backoff** — connection
establishment is pre-invocation and therefore safe to retry), record
the invocation, perform the call under the per-operation deadline, and
classify the outcome:

* **ok / error** — the service answered (a normal value or an
  application error); the response is recorded and the session moves
  on.
* **indeterminate** — the call failed after the request may have been
  sent (timeout, reset, injected drop/disconnect).  The operation is
  left pending, the session's logical thread is retired, and the
  session continues on a fresh thread id.  Never retried: a retry of
  an increment that *did* land would double-count it.
* **connect-exhausted** — the service could not even be reached after
  the full backoff schedule (typically: it died).  The session drains —
  it stops issuing work and reports why, and the runner uses the first
  such report to tell the *other* sessions to drain too, so a dead
  service ends the campaign in bounded time instead of hanging it.

The workloads are deliberately model-shaped (method names match
:mod:`repro.monitor.models`) and value-unique where distinct values keep
a queue's or register's linearizations unambiguous.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.core.events import Invocation
from repro.live.recorder import LiveRecorder
from repro.live.transport import (
    AmbiguousFailure,
    ConnectFailed,
    Transport,
)

__all__ = ["Session", "SessionConfig", "SessionStats", "make_workload"]


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of one session's operation loop."""

    ops: int = 25
    op_timeout: float = 1.0
    #: connection attempts before the session declares the service dead.
    connect_attempts: int = 6
    backoff_base: float = 0.02  #: seconds, doubled per attempt
    backoff_cap: float = 0.5


@dataclass
class SessionStats:
    """What one session did, for the campaign report."""

    index: int
    completed: int = 0
    errors: int = 0
    indeterminate: int = 0
    connect_retries: int = 0
    #: "finished" | "drained" | "connect-exhausted"
    outcome: str = "finished"


def make_workload(model: str, session_index: int, rng: random.Random):
    """An invocation generator for *model*, unique-valued where needed."""
    counter = iter(range(10**9))

    def unique() -> int:
        # Globally unique across sessions: distinct values keep the
        # queue's and register's closures small.
        return session_index * 1_000_000 + next(counter)

    if model == "counter":
        def gen() -> Invocation:
            return (
                Invocation("inc")
                if rng.random() < 0.65
                else Invocation("get")
            )
    elif model == "queue":
        def gen() -> Invocation:
            if rng.random() < 0.6:
                return Invocation("Enqueue", (unique(),))
            return Invocation("TryDequeue")
    elif model == "register":
        def gen() -> Invocation:
            if rng.random() < 0.5:
                return Invocation("Write", (unique(),))
            return Invocation("Read")
    else:
        raise ValueError(
            f"no live workload for model {model!r} "
            "(choose counter, queue, or register)"
        )
    return gen


class Session(threading.Thread):
    """One client session: a thread looping invocations at the service."""

    def __init__(
        self,
        index: int,
        transport: Transport,
        recorder: LiveRecorder,
        workload,
        config: SessionConfig,
        drain: threading.Event,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(name=f"live-session-{index}", daemon=True)
        self.transport = transport
        self.recorder = recorder
        self.workload = workload
        self.config = config
        self.drain = drain
        self.rng = rng or random.Random(index)
        self.stats = SessionStats(index=index)

    def _connect_with_backoff(self) -> bool:
        """Pre-invocation connection with jittered exponential backoff.

        Safe to retry as often as we like: nothing has been recorded and
        no request has been sent.  Returns False when the budget is
        exhausted or a drain was requested — the session then stops.
        """
        delay = self.config.backoff_base
        for attempt in range(self.config.connect_attempts):
            try:
                self.transport.connect()
                return True
            except ConnectFailed:
                self.stats.connect_retries += 1
                if self.drain.is_set():
                    return False
                if attempt == self.config.connect_attempts - 1:
                    return False
                # Full jitter: sleep U(0, delay) — decorrelates sessions
                # hammering a restarting service.
                time.sleep(self.rng.uniform(0.0, delay))
                delay = min(delay * 2, self.config.backoff_cap)
        return False

    def run(self) -> None:
        thread = self.recorder.allocate_thread()
        try:
            for _n in range(self.config.ops):
                if self.drain.is_set():
                    self.stats.outcome = "drained"
                    return
                invocation = self.workload()
                if not self._connect_with_backoff():
                    self.stats.outcome = (
                        "drained" if self.drain.is_set() else "connect-exhausted"
                    )
                    return
                # From here on the operation is live: record the call
                # BEFORE the request can hit the wire.
                op_index = self.recorder.begin(thread, invocation)
                try:
                    response = self.transport.call(invocation)
                except AmbiguousFailure as exc:
                    # May or may not have taken effect — leave it pending
                    # forever on a retired thread; never retry it.
                    thread = self.recorder.indeterminate_op(
                        thread, op_index, exc.why
                    )
                    self.stats.indeterminate += 1
                    self.transport.reset()
                    continue
                self.recorder.commit(thread, op_index, response)
                self.stats.completed += 1
                if response.kind == "raised":
                    self.stats.errors += 1
        finally:
            self.transport.close()
