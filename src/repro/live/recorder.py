"""The wall-clock recorder: real time in, checkable history out.

Live services cannot be baton-scheduled, so the only ordering evidence
available is wall-clock time.  :class:`LiveRecorder` turns it into a
sound history:

* **Monotonic clock.**  Timestamps come from ``time.monotonic()`` —
  immune to NTP steps and wall-clock adjustments; a recording's
  timestamps are guaranteed non-decreasing.
* **Invocation-before-send, response-after-receive.**  Sessions call
  :meth:`begin` *before* handing the request to the transport and
  :meth:`commit` *after* the response arrives, so every recorded
  interval contains the operation's true effect window.  Recorded
  precedence is therefore a subset of true precedence: the checker sees
  at most the constraints that really held, which is what makes a FAIL
  verdict on a live trace a proof.
* **Logical thread retirement.**  A classical history forbids a thread
  to call again while an operation is pending.  When an operation goes
  indeterminate the session's logical thread is *retired* (its pending
  operation stays open forever, concurrent with everything after it —
  exactly the may-take-effect-anytime semantics) and the session
  continues on a freshly allocated thread id.  This is the standard
  crashed-process convention of wall-clock checkers.
* **Crash-safe appends.**  Every event is one flushed JSONL line via
  :class:`~repro.monitor.trace.LiveTraceWriter`; an interrupted
  recording is a loadable prefix, never a corrupt file.
"""

from __future__ import annotations

import threading
import time

from repro.core.events import Invocation, Response
from repro.monitor.trace import LiveTraceWriter

__all__ = ["LiveRecorder"]


class LiveRecorder:
    """Thread-safe wall-clock history recorder over a v2 live trace."""

    def __init__(
        self,
        path: str,
        sessions: int,
        *,
        subject: str | None = None,
        model: str | None = None,
        flush_every_n: int = 1,
        flush_interval: float = 0.0,
    ) -> None:
        self.path = path
        self._writer = LiveTraceWriter(
            path,
            sessions,
            subject=subject,
            model=model,
            flush_every_n=flush_every_n,
            flush_interval=flush_interval,
        )
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._next_thread = 0
        self._op_counts: dict[int, int] = {}
        self._finalized = False
        self.completed = 0
        self.indeterminate = 0

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        """Seconds since the recording started, monotonic."""
        return time.monotonic() - self._t0

    @property
    def events(self) -> int:
        """Lines appended so far (the chaos killer's progress signal)."""
        return self._writer.events

    # -- thread allocation ----------------------------------------------

    def allocate_thread(self) -> int:
        """A fresh logical thread id (session start, or after retirement)."""
        with self._lock:
            thread = self._next_thread
            self._next_thread += 1
            self._op_counts[thread] = 0
            return thread

    # -- the recording protocol -----------------------------------------

    def begin(self, thread: int, invocation: Invocation) -> int:
        """Record the invocation; MUST be called before the request is sent."""
        with self._lock:
            op_index = self._op_counts[thread]
            self._op_counts[thread] = op_index + 1
        self._writer.record_call(thread, op_index, invocation, self.now())
        return op_index

    def commit(self, thread: int, op_index: int, response: Response) -> None:
        """Record the response; called after it was actually received."""
        self._writer.record_return(thread, op_index, response, self.now())
        with self._lock:
            self.completed += 1

    def indeterminate_op(self, thread: int, op_index: int, why: str) -> int:
        """Mark the op indeterminate, retire *thread*, return a fresh one.

        The pending operation stays open in the trace — the checker will
        consider every placement of it, including none.
        """
        self._writer.record_indeterminate(thread, op_index, why, self.now())
        with self._lock:
            self.indeterminate += 1
        return self.allocate_thread()

    def finalize(self, outcome: str) -> None:
        """Write the end marker (idempotent) and close the trace."""
        with self._lock:
            if self._finalized:
                return
            self._finalized = True
        self._writer.finalize(outcome, self.now())
