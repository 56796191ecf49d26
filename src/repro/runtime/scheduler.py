"""The baton engine: logical threads are pooled OS threads.

The scheduling semantics — who may run, what a decision is, when an
execution is stuck — live in :mod:`repro.runtime.core`.  This module is one
of the two mechanisms that make the chosen thread run:

* Logical threads are real ``threading.Thread`` workers, but they are
  *serialized*: a baton (one lock per worker, held while it is parked)
  guarantees that exactly one logical thread executes at any instant.
  The GIL is therefore irrelevant — interleaving is fully controlled by
  the core, at the granularity of the instrumented operations, exactly as
  CHESS controls interleaving at the granularity of synchronization events.
* An instrumented primitive reports its effect to the core from the
  worker's own OS thread; while the core answers "another thread", the
  worker releases that thread's baton and parks on its own.
* The controller thread (the caller of ``execute``) sleeps on ``_main``
  until the execution is over, optionally policing it with the watchdog,
  which — unlike the coop engine's — can also abandon a worker wedged in a
  blocking C call.

Workers are pooled and reused across executions; a stuck execution is torn
down by aborting the still-blocked workers with :class:`ExecutionAbort`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.runtime.core import (
    BLOCKED,
    DONE,
    RUNNABLE,
    THREAD_NAMES,
    UNSTARTED,
    Decision,
    ExecutionOutcome,
    LogicalThread,
    SchedulerCore,
    SchedulingStrategy,
    thread_name,
)
from repro.runtime.errors import ExecutionAbort, SchedulerError
from repro.runtime.watchdog import WatchdogConfig, interrupt_thread

__all__ = [
    "Decision",
    "ExecutionOutcome",
    "Scheduler",
    "SchedulingStrategy",
    "THREAD_NAMES",
    "thread_name",
]


_FOREIGN_CALLER = "not running on a scheduler-controlled thread"


class _Worker(LogicalThread):
    """A pooled OS thread hosting one logical thread per execution."""

    def __init__(self, scheduler: "Scheduler", slot: int) -> None:
        super().__init__()
        self.scheduler = scheduler
        self.slot = slot
        # The baton is a raw lock, held while the worker is parked (or
        # at rest between executions) and released to wake it.  It is
        # binary by protocol: a baton is released only to a worker that is
        # parked on it or about to park, and that worker takes it back
        # before anyone releases it again.  A second release in a row
        # would raise RuntimeError rather than bank a wake-up.
        self.baton = threading.Lock()
        self.baton.acquire()
        # Teardown handshake: set when this worker has observed an abort
        # and parked itself again.  Per-worker (not a shared semaphore) so
        # the controller can tell exactly which worker failed to
        # acknowledge within the bounded wait and abandon just that one.
        self.ack = threading.Event()
        # An abandoned worker lost its pool slot (it never acknowledged an
        # abort — typically wedged in a blocking C call); when it finally
        # wakes it must exit its loop without touching scheduler state.
        self.abandoned = False
        self.body: Callable[[], None] | None = None
        self._shutdown = False
        self.os_thread = threading.Thread(
            target=self._loop, name=f"lineup-worker-{slot}", daemon=True
        )
        self.os_thread.start()

    def _loop(self) -> None:
        sched = self.scheduler
        while True:
            self.baton.acquire()
            if self._shutdown:
                return
            assert self.body is not None
            try:
                self.body()
            except ExecutionAbort:
                pass
            except BaseException as exc:  # harness bug or uncaught user error
                sched._record_crash(self.tid, exc)
            self.state = DONE
            self.body = None
            # Read order matters: ``_tearing_down`` before ``abandoned``.
            # The controller abandons a worker *before* clearing
            # ``_tearing_down``, so a worker that sees the flag already
            # cleared is guaranteed to see ``abandoned`` set — it can never
            # mistake a finished teardown for a live execution and corrupt
            # the next one with a spurious completion.
            tearing_down = sched._tearing_down
            if self.abandoned:
                self.ack.set()
                return
            if tearing_down:
                self.ack.set()
            else:
                sched._on_thread_done(self)

    def shutdown(self) -> None:
        self._shutdown = True
        self.baton.release()


class Scheduler(SchedulerCore):
    """The baton engine: one pooled OS thread per logical thread.

    One scheduler owns a pool of worker threads and is reused across many
    executions and tests (see :class:`~repro.runtime.core.SchedulerCore`
    for the contract both engines share).
    """

    #: Engine name, for dispatching code that cares which substrate runs
    #: the logical threads.
    engine = "baton"

    def __init__(
        self,
        max_steps: int = 20_000,
        watchdog: WatchdogConfig | float | None = None,
        abort_timeout: float = 10.0,
    ) -> None:
        super().__init__(max_steps, watchdog)
        if abort_timeout < 0:
            raise ValueError("abort_timeout must be >= 0")
        self.abort_timeout = abort_timeout
        self._workers: list[_Worker] = []
        self._main = threading.Semaphore(0)
        self._local = threading.local()
        # A decision error raised while no body was running, carried from
        # the worker that hit it to the controller (the one error rule).
        self._error: Exception | None = None
        # Snapshot taken when a worker halts the execution, while only it
        # runs and all other states are stable: workers that will
        # acknowledge the abort, and workers that never started (cleaned
        # up without a handshake).
        self._abort_acks: list[_Worker] = []
        self._abort_unstarted: list[_Worker] = []

    def shutdown(self) -> None:
        """Terminate the pooled worker threads."""
        for worker in self._workers:
            worker.shutdown()
        for worker in self._workers:
            worker.os_thread.join(timeout=5)
        self._workers = []

    # ------------------------------------------------------------------
    # Internals: moving control between OS threads
    # ------------------------------------------------------------------

    def current_thread(self) -> int:
        """Logical thread id of the caller (0-based).

        Unlike the core's answer (whoever holds control), this is the
        *caller's* own id — a parked worker unwinding through cleanup code
        still records its accesses under it — and a caller that is no
        worker of this scheduler is an error.  Asked by every access
        record, hence the thread-local read in place.
        """
        try:
            return self._local.worker.tid
        except AttributeError:
            raise SchedulerError(_FOREIGN_CALLER) from None

    def _worker(self) -> _Worker:
        # ``_local`` is this scheduler's own: only ``_wrap_body`` fills it,
        # with a worker of this pool, on that worker's OS thread.
        try:
            return self._local.worker
        except AttributeError:
            raise SchedulerError(_FOREIGN_CALLER) from None

    def _perform(self, effect: tuple) -> _Worker:
        """Report the calling worker's *effect*; return once it runs again.

        While the core answers with another thread, release that thread's
        baton and park on one's own.  A core exception surfaces here, that
        is, inside the calling body.
        """
        worker = self._worker()
        nxt = self.step(worker, effect)
        while nxt is not worker:
            nxt.baton.release()
            worker.baton.acquire()
            nxt = self.resume(worker)  # aborts if torn down meanwhile
        return worker

    def _spawn(self, bodies: list[Callable[[], None]]) -> list[_Worker]:
        while len(self._workers) < len(bodies):
            self._workers.append(_Worker(self, len(self._workers)))
        active = self._workers[: len(bodies)]
        for tid, (worker, body) in enumerate(zip(active, bodies)):
            worker.reset(tid)
            worker.body = self._wrap_body(worker, body)
            worker.ack.clear()
        return active

    def _wrap_body(self, worker: _Worker, body: Callable[[], None]):
        def run() -> None:
            self._local.worker = worker
            body()

        return run

    def _drive(self, first: _Worker) -> None:
        first.baton.release()
        self._await_completion()
        self._teardown(self.abort_timeout)
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _on_thread_done(self, worker: _Worker) -> None:
        """Called from a worker whose body just finished."""
        try:
            nxt = self.thread_done(worker)
        except ExecutionAbort:
            return  # stuck: _halt has woken the controller already
        except Exception as exc:
            # No body is running, so the error must leave execute(): hand
            # it to the controller instead of letting it kill this worker.
            self._error = exc
            self._halt()
            return
        if nxt is None:
            self._main.release()
        else:
            nxt.baton.release()

    def _halt(self) -> None:
        """Wake the controller to tear the execution down.

        Called from the running worker (the caller raises
        :class:`ExecutionAbort` afterwards when mid-body): it holds the
        baton and every other worker is parked, so the states cannot
        change under the snapshot.
        """
        self._snapshot_parked()
        self._tearing_down = True
        self._main.release()

    def _snapshot_parked(self) -> None:
        self._abort_acks = [
            w for w in self._threads if w.state is RUNNABLE or w.state is BLOCKED
        ]
        self._abort_unstarted = [
            w for w in self._threads if w.state is UNSTARTED
        ]

    def _await_completion(self) -> None:
        """Wait for the execution to finish, policing it with the watchdog.

        Without a watchdog this is a plain blocking wait (an operation that
        loops in uninstrumented code then hangs the process — the pre-
        watchdog behaviour).  With one, the controller polls: once the
        core's stall detector trips, the running logical thread is deemed
        wedged and the execution is torn down as *divergent*.
        """
        cfg = self.watchdog
        if cfg is None:
            self._main.acquire()
            return
        self._stall_ticks = None
        while True:
            if self._main.acquire(timeout=cfg.poll_interval):
                return
            if not self._stalled():
                continue
            # Stalled.  Raise the teardown flag first: any worker that
            # reaches an instrumented point from here on aborts instead of
            # mutating scheduler state.  Then grant one grace poll in case
            # the execution was completing at this very instant.
            self._tearing_down = True
            if self._main.acquire(timeout=cfg.poll_interval):
                outcome = self._current_outcome()
                if outcome.status == "complete" and self._error is None:
                    # Genuine completion that raced the watchdog: the flag
                    # was never observed by anyone (all bodies already
                    # finished), so clear it and carry on.
                    self._tearing_down = False
                return
            self._finish_divergent(cfg)
            return

    def _teardown(self, timeout: float, interrupt: bool = False) -> None:
        """Abort the workers still alive after a halted execution.

        The wait for each worker's acknowledgement is bounded by *timeout*:
        a worker that swallows :class:`ExecutionAbort` (hostile cleanup
        code) or wedges on the unwind path is abandoned — its pool slot is
        replaced with a fresh worker — so a single bad execution can never
        poison the pool for the executions after it.
        """
        if not self._tearing_down:
            return
        for worker in self._abort_unstarted:
            # Never scheduled: clear the assignment in place; the worker is
            # parked on its baton and will not observe the body slot.
            worker.body = None
            worker.state = DONE
        running = self._running
        for worker in self._abort_acks:
            # Parked workers need their baton released to observe the
            # abort.  The running one unwinds on its own after halting; a
            # wedged one (by definition not parked) needs the asynchronous
            # exception.
            if worker is not running:
                worker.baton.release()
            elif interrupt:
                interrupt_thread(worker.os_thread)
        deadline = time.monotonic() + timeout
        for worker in self._abort_acks:
            remaining = deadline - time.monotonic()
            if not worker.ack.wait(timeout=max(0.0, remaining)):
                # Abandonment must precede clearing ``_tearing_down`` (see
                # the read ordering in :meth:`_Worker._loop`).  The stale
                # daemon thread exits on its own if it ever wakes; until
                # then it is parked harmlessly.
                worker.abandoned = True
                self._workers[worker.slot] = _Worker(self, worker.slot)
        self._abort_acks = []
        self._abort_unstarted = []
        self._tearing_down = False

    def _finish_divergent(self, cfg: WatchdogConfig) -> None:
        """Tear down a wedged execution from the controller side.

        Entered with ``_tearing_down`` already raised.  Unlike a stuck
        teardown this runs while the wedged worker still nominally holds
        the baton, so that victim is interrupted with an asynchronously
        injected :class:`ExecutionAbort`, and the bound on the wait is
        ``abandon_timeout``.
        """
        self._mark_divergent()
        self._snapshot_parked()
        self._teardown(cfg.abandon_timeout, interrupt=True)
        # A completion signal may have raced the teardown; swallow it so it
        # cannot leak into the next execution's wait.
        while self._main.acquire(blocking=False):
            pass
