"""A stateless model-checking scheduler for Python (the CHESS substitute).

The paper builds Line-Up on top of the CHESS stateless model checker, which
enumerates thread schedules of .NET code by context-switching only at
instrumented synchronization points.  This module provides the equivalent
substrate for Python:

* Logical threads are real ``threading.Thread`` workers, but they are
  *serialized*: a baton (one semaphore per worker) guarantees that exactly
  one logical thread executes at any instant.  The GIL is therefore
  irrelevant — interleaving is fully controlled by the scheduler, at the
  granularity of the instrumented operations, exactly as CHESS controls
  interleaving at the granularity of synchronization events.
* Every instrumented primitive (volatile read/write, CAS, lock acquire,
  ...) calls :meth:`Scheduler.schedule_point` before touching shared state.
  At such a point the scheduler may transfer the baton to another enabled
  logical thread.  Which thread continues is a *decision*; the sequence of
  decisions fully determines the execution, which is what makes stateless
  replay-based exploration possible.
* Blocking primitives call :meth:`Scheduler.block_until`; a blocked thread
  is re-enabled when its predicate holds.  If no thread is enabled the
  execution is *stuck* (a deadlock), which Line-Up's generalized
  linearizability definition treats as an observable outcome rather than
  a test-harness failure.
* Bounded nondeterminism inside the implementation under test (for example
  a lock acquire that may time out) is modelled with
  :meth:`Scheduler.choose`, which is a decision like any other and is
  enumerated by the exploration strategies.

Two scheduling modes correspond to the two phases of the Line-Up check:

* **serial mode** (phase 1): context switches happen only at operation
  boundaries; an operation that blocks makes the whole execution stuck
  immediately (a *stuck serial history* in the paper's terminology).
* **concurrent mode** (phase 2): every scheduling point is a potential
  context switch, optionally preemption-bounded.

Workers are pooled and reused across executions; a stuck execution is torn
down by aborting the still-blocked workers with :class:`ExecutionAbort`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.runtime.errors import (
    DecisionReplayError,
    ExecutionAbort,
    SchedulerError,
)
from repro.runtime.watchdog import WatchdogConfig, interrupt_thread

__all__ = [
    "Decision",
    "ExecutionOutcome",
    "Scheduler",
    "THREAD_NAMES",
    "thread_name",
]

#: Display names for logical threads, matching the paper's A/B/C convention.
THREAD_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def thread_name(tid: int) -> str:
    """Return the display name for logical thread *tid* (0 -> 'A', ...)."""
    if 0 <= tid < len(THREAD_NAMES):
        return THREAD_NAMES[tid]
    return f"T{tid}"


# Worker / logical-thread states.
_UNSTARTED = "unstarted"  # body assigned, never scheduled
_RUNNABLE = "runnable"  # started, not blocked (may or may not hold baton)
_BLOCKED = "blocked"  # waiting inside block_until
_DONE = "done"  # body finished (or aborted) for this execution


class Decision:
    """One decision made during an execution.

    ``kind`` is ``"thread"`` (which logical thread continues) or ``"value"``
    (a bounded nondeterministic choice made by the code under test).
    ``options`` is the tuple of alternatives that were available, ``chosen``
    the selected element, and ``running`` the logical thread that held the
    baton when the decision was made (``None`` for the initial decision).
    ``free`` marks decisions at operation boundaries of the test harness:
    switching threads there is part of enumerating operation interleavings
    and is *not* counted as a preemption by bounded strategies (preemptions
    are switches away from a thread that is mid-operation and enabled).

    Hand-rolled rather than a frozen dataclass: one is created per
    scheduling step of every execution, so construction cost is a
    per-step tax on both engines.  Treat instances as immutable.
    """

    __slots__ = ("kind", "options", "chosen", "running", "free")

    def __init__(
        self,
        kind: str,
        options: tuple,
        chosen: Any,
        running: int | None,
        free: bool = False,
    ) -> None:
        self.kind = kind
        self.options = options
        self.chosen = chosen
        self.running = running
        self.free = free

    def __repr__(self) -> str:
        return (
            f"Decision(kind={self.kind!r}, options={self.options!r}, "
            f"chosen={self.chosen!r}, running={self.running!r}, "
            f"free={self.free!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Decision:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.options == other.options
            and self.chosen == other.chosen
            and self.running == other.running
            and self.free == other.free
        )

    def __hash__(self) -> int:
        return hash(
            (self.kind, self.options, self.chosen, self.running, self.free)
        )


@dataclass
class ExecutionOutcome:
    """Everything observable about one terminated (or stuck) execution."""

    status: str  #: ``"complete"``, ``"stuck"`` or ``"divergent"``
    stuck_kind: str | None = None  #: ``"deadlock"``, ``"livelock"`` or None
    decisions: list[Decision] = field(default_factory=list)
    events: list[Any] = field(default_factory=list)
    accesses: list[Any] = field(default_factory=list)
    #: per entry of ``accesses``/``events``: the index of the decision
    #: whose step performed it (the *segment*).  The segment attributes
    #: every observable effect to the scheduling step that produced it,
    #: which is what the reduction strategies need to derive per-step
    #: read/write footprints (see :mod:`repro.reduction.dependence`).
    access_segments: list[int] = field(default_factory=list)
    event_segments: list[int] = field(default_factory=list)
    steps: int = 0
    #: logical threads that had not finished their body when the execution
    #: got stuck (empty for complete executions).
    pending_threads: tuple[int, ...] = ()
    #: (thread id, exception) pairs for bodies that raised out of the
    #: harness; normally empty because the harness captures exceptions.
    crashes: list[tuple[int, BaseException]] = field(default_factory=list)
    #: the per-step dependence analysis of this outcome, kept here by
    #: :func:`repro.reduction.dependence.dependence_index` so it is derived
    #: at most once (the outcome is final when ``strategy.finish`` sees it).
    dependence: Any = field(default=None, repr=False, compare=False)

    def record_access(self, payload: Any) -> None:
        """Append an access record, attributed to the current segment."""
        self.accesses.append(payload)
        self.access_segments.append(len(self.decisions) - 1)

    def record_event(self, payload: Any) -> None:
        """Append a harness event, attributed to the current segment."""
        self.events.append(payload)
        self.event_segments.append(len(self.decisions) - 1)

    @property
    def stuck(self) -> bool:
        return self.status == "stuck"

    @property
    def divergent(self) -> bool:
        """True when the watchdog cut this execution off mid-operation."""
        return self.status == "divergent"


class _Worker:
    """A pooled OS thread hosting one logical thread per execution."""

    def __init__(self, scheduler: "Scheduler", slot: int) -> None:
        self.scheduler = scheduler
        self.slot = slot
        self.baton = threading.Semaphore(0)
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
        self.tid: int = -1
        self.state: str = _DONE
        self.predicate: Callable[[], bool] | None = None
        # True until the body reaches its first scheduling point.  That
        # point is redundant: the decision that scheduled this body already
        # chose it, and no shared access happened in between, so branching
        # again would only enumerate duplicate interleavings.
        self.fresh = False
        # Set by spin_wait: the thread stays disabled until another thread
        # makes progress (fair scheduling for spin loops, see the paper's
        # Section 4 note that "support for fairness is important").
        self.yielded = False
        self._shutdown = False
        self.os_thread = threading.Thread(
            target=self._loop, name=f"lineup-worker-{slot}", daemon=True
        )
        self.os_thread.start()

    def enabled(self) -> bool:
        """Whether this logical thread could be scheduled right now."""
        if self.yielded:
            return False
        if self.state in (_UNSTARTED, _RUNNABLE):
            return True
        if self.state == _BLOCKED:
            assert self.predicate is not None
            return bool(self.predicate())
        return False

    def _loop(self) -> None:
        sched = self.scheduler
        while True:
            self.baton.acquire()
            if self._shutdown:
                return
            assert self.body is not None
            self.state = _RUNNABLE
            try:
                self.body()
            except ExecutionAbort:
                pass
            except BaseException as exc:  # harness bug or uncaught user error
                sched._record_crash(self.tid, exc)
            self.state = _DONE
            self.predicate = None
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
                sched._on_thread_done()

    def shutdown(self) -> None:
        self._shutdown = True
        self.baton.release()


class Scheduler:
    """Enumerates thread interleavings of instrumented Python code.

    One scheduler owns a pool of worker threads and is reused across many
    executions and tests.  It is not itself thread-safe: drive it from a
    single controller thread (typically the pytest process) via
    :meth:`explore` or :meth:`execute`.
    """

    #: Engine name, for dispatching code that cares which substrate runs
    #: the logical threads (see ``repro.runtime.coop`` for the other one).
    engine = "baton"

    def __init__(
        self,
        max_steps: int = 20_000,
        watchdog: WatchdogConfig | float | None = None,
        abort_timeout: float = 10.0,
    ) -> None:
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if abort_timeout < 0:
            raise ValueError("abort_timeout must be >= 0")
        if isinstance(watchdog, (int, float)) and not isinstance(watchdog, bool):
            watchdog = WatchdogConfig(time_limit=float(watchdog))
        self.max_steps = max_steps
        self.watchdog = watchdog
        self.abort_timeout = abort_timeout
        self._workers: list[_Worker] = []
        self._main = threading.Semaphore(0)
        self._local = threading.local()
        # Monotonic progress counter, bumped by steps, baton handovers and
        # thread completions.  The watchdog declares an execution divergent
        # when this stops moving for ``watchdog.time_limit`` seconds.
        # Lost increments under concurrent bumps are harmless: the watchdog
        # only cares whether the value *changed*.
        self._progress_ticks = 0
        # Location ids are issued per execution (reset after each one, so
        # factory-time allocations for the *next* execution restart at 1).
        self._location_serial = 0
        # Per-execution state.
        self._active: list[_Worker] = []
        self._strategy = None
        self._serial = False
        self._outcome: ExecutionOutcome | None = None
        self._running: _Worker | None = None
        self._tearing_down = False
        self._in_execution = False
        # Snapshot taken at stuck-time, while only one thread runs and all
        # other states are stable: workers that will acknowledge the abort,
        # and workers that never started (cleaned up without a handshake).
        self._abort_acks: list[_Worker] = []
        self._abort_unstarted: list[_Worker] = []

    # ------------------------------------------------------------------
    # Controller-side API
    # ------------------------------------------------------------------

    def execute(
        self,
        bodies: Sequence[Callable[[], None]],
        strategy: "SchedulingStrategy",
        serial: bool = False,
    ) -> ExecutionOutcome:
        """Run one execution of *bodies* under *strategy*'s decisions.

        Each element of *bodies* becomes a logical thread.  Returns the
        :class:`ExecutionOutcome`; the scheduler itself is ready for the
        next execution afterwards.
        """
        if self._in_execution:
            raise SchedulerError("execute() is not reentrant")
        if not bodies:
            raise SchedulerError("at least one thread body is required")
        self._in_execution = True
        try:
            return self._execute(list(bodies), strategy, serial)
        finally:
            self._in_execution = False

    def explore(
        self,
        bodies_factory: Callable[[], Sequence[Callable[[], None]]],
        strategy: "SchedulingStrategy",
        serial: bool = False,
        max_executions: int | None = None,
    ) -> Iterator[ExecutionOutcome]:
        """Yield outcomes for every execution the strategy wants to run.

        *bodies_factory* must build a fresh program (fresh object under
        test, fresh closures) for every execution — this is what makes the
        exploration *stateless* in the CHESS sense.
        """
        count = 0
        while strategy.more():
            if max_executions is not None and count >= max_executions:
                return
            yield self.execute(bodies_factory(), strategy, serial=serial)
            count += 1

    def shutdown(self) -> None:
        """Terminate the pooled worker threads."""
        for worker in self._workers:
            worker.shutdown()
        for worker in self._workers:
            worker.os_thread.join(timeout=5)
        self._workers = []

    # ------------------------------------------------------------------
    # Controlled-thread API (called from inside the code under test)
    # ------------------------------------------------------------------

    def current_thread(self) -> int:
        """Logical thread id of the caller (0-based)."""
        worker = getattr(self._local, "worker", None)
        if worker is None:
            raise SchedulerError("not running on a scheduler-controlled thread")
        return worker.tid

    def thread_count(self) -> int:
        """Number of logical threads in the current execution."""
        return len(self._active)

    def schedule_point(self, boundary: bool = False) -> None:
        """A potential context switch before a shared-state access.

        In serial mode only *boundary* points (between operations of the
        test) allow a switch; interior points return immediately so that
        operations execute atomically, producing serial histories.
        """
        worker = self._require_worker()
        self._progress(worker)
        if worker.fresh:
            worker.fresh = False
            return
        self._bump_step()
        if self._serial and not boundary:
            return
        self._transfer(worker, free=boundary)

    def block_until(
        self, predicate: Callable[[], bool], harness: bool = False
    ) -> None:
        """Block the calling logical thread until *predicate* holds.

        The predicate must be a pure function of instrumented shared state.
        In serial mode a false predicate makes the execution stuck at once,
        because a serial history cannot overlap another operation with the
        pending one (this yields the paper's stuck serial histories) —
        except for *harness* waits (``harness=True``), which are test
        infrastructure (e.g. "wait for every column before the final
        sequence") and block normally in both modes.
        """
        worker = self._require_worker()
        self._progress(worker)
        if worker.fresh:
            worker.fresh = False
        else:
            self._bump_step()
            if not self._serial:
                # The wait itself is a scheduling point even when it would
                # not block, mirroring CHESS's instrumented sync operations.
                self._transfer(worker)
        while not predicate():
            if self._serial and not harness:
                self._finish_stuck("deadlock")
                raise ExecutionAbort()
            worker.state = _BLOCKED
            worker.predicate = predicate
            self._transfer(worker)
            # When rescheduled, the predicate held at scheduling time and
            # nothing ran since, so the loop exits unless it was aborted.

    def choose(self, n: int) -> int:
        """Resolve a bounded nondeterministic choice in the code under test.

        Returns an integer in ``range(n)``.  Exploration strategies
        enumerate or sample the alternatives exactly like thread decisions;
        this models, for example, a lock acquire that may time out.
        """
        worker = self._require_worker()
        if n <= 0:
            raise ValueError("choose() needs at least one alternative")
        worker.fresh = False  # a value decision is never redundant
        self._progress(worker)
        self._bump_step()
        if n == 1:
            return 0
        return self._decide("value", tuple(range(n)), worker.tid)

    def yield_point(self) -> None:
        """An explicit yield (spin-wait hint); same as a scheduling point."""
        self.schedule_point()

    def spin_wait(self) -> None:
        """Fair spin-loop backoff: yield until another thread progresses.

        The calling thread becomes disabled until some other thread
        executes a scheduling step, which is the fair-scheduling support
        the paper notes is "important because many of the concurrent data
        types use spin-loops": without it, exhaustive exploration of a
        spin loop degenerates into livelock.  In serial mode a spin wait
        can never be satisfied (no other operation may overlap), so the
        execution is immediately stuck, like a blocking operation.
        """
        worker = self._require_worker()
        self._progress(worker)
        worker.fresh = False
        self._bump_step()
        if self._serial:
            self._finish_stuck("livelock")
            raise ExecutionAbort()
        worker.yielded = True
        self._transfer(worker)

    def record_event(self, payload: Any) -> None:
        """Append a harness-level event (call/return) to the execution."""
        outcome = self._current_outcome()
        outcome.record_event(payload)

    def record_access(self, payload: Any) -> None:
        """Append a memory-access record for the analysis tools."""
        outcome = self._current_outcome()
        outcome.record_access(payload)

    def new_location_id(self) -> int:
        """Issue the next location id for an instrumented cell or lock.

        Ids restart from 1 after every execution, so a location allocated
        by a deterministic factory gets the *same* id in every execution
        (and in every process).  That stability is what lets the
        reduction layer compare step footprints across executions; a
        process-global counter would make them incomparable.
        """
        self._location_serial += 1
        return self._location_serial

    @property
    def serial_mode(self) -> bool:
        return self._serial

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_worker(self) -> _Worker:
        worker = getattr(self._local, "worker", None)
        if worker is None or worker.scheduler is not self:
            raise SchedulerError("not running on a scheduler-controlled thread")
        if self._tearing_down:
            # The execution is being torn down (it got stuck); any cleanup
            # code running on the unwind path (context managers, finally
            # blocks) must abort rather than touch scheduler state, or it
            # would clobber the ExecutionAbort with spurious errors.
            raise ExecutionAbort()
        return worker

    def _current_outcome(self) -> ExecutionOutcome:
        if self._outcome is None:
            raise SchedulerError("no execution in progress")
        return self._outcome

    def _progress(self, worker: _Worker) -> None:
        """*worker* made progress: re-enable threads spin-waiting on it."""
        for other in self._active:
            if other is not worker:
                other.yielded = False

    def _bump_step(self) -> None:
        outcome = self._current_outcome()
        outcome.steps += 1
        self._progress_ticks += 1
        if outcome.steps > self.max_steps:
            self._finish_stuck("livelock")
            raise ExecutionAbort()

    def _record_crash(self, tid: int, exc: BaseException) -> None:
        if self._outcome is not None:
            self._outcome.crashes.append((tid, exc))

    def _ensure_workers(self, n: int) -> None:
        while len(self._workers) < n:
            self._workers.append(_Worker(self, len(self._workers)))

    def _execute(
        self,
        bodies: list[Callable[[], None]],
        strategy: "SchedulingStrategy",
        serial: bool,
    ) -> ExecutionOutcome:
        self._ensure_workers(len(bodies))
        self._active = self._workers[: len(bodies)]
        for tid, (worker, body) in enumerate(zip(self._active, bodies)):
            worker.tid = tid
            worker.body = self._wrap_body(worker, body)
            worker.state = _UNSTARTED
            worker.predicate = None
            worker.fresh = True
            worker.yielded = False
            worker.ack.clear()
        self._strategy = strategy
        self._serial = serial
        self._outcome = ExecutionOutcome(status="complete")
        self._running = None
        self._tearing_down = False
        strategy.begin()

        first = self._pick_next()
        if first is None:  # pragma: no cover - bodies is non-empty
            raise SchedulerError("no thread enabled at execution start")
        self._hand_baton(first)
        self._await_completion()
        self._teardown()
        outcome = self._outcome
        assert outcome is not None
        strategy.finish(outcome)
        self._outcome = None
        self._strategy = None
        # Reset here (not at execute() entry): the bodies factory for the
        # next execution runs *before* execute() and already allocates
        # instrumented locations, which must start from 1 again.
        self._location_serial = 0
        return outcome

    def _wrap_body(self, worker: _Worker, body: Callable[[], None]):
        def run() -> None:
            self._local.worker = worker
            body()

        return run

    def _hand_baton(self, worker: _Worker) -> None:
        self._running = worker
        self._progress_ticks += 1
        worker.baton.release()

    def _await_completion(self) -> None:
        """Wait for the execution to finish, policing it with the watchdog.

        Without a watchdog this is a plain blocking wait (an operation that
        loops in uninstrumented code then hangs the process — the pre-
        watchdog behaviour).  With one, the controller polls: whenever
        ``_progress_ticks`` stalls for ``time_limit`` seconds the running
        logical thread is deemed wedged and the execution is torn down as
        *divergent*.
        """
        cfg = self.watchdog
        if cfg is None:
            self._main.acquire()
            return
        ticks = self._progress_ticks
        deadline = time.monotonic() + cfg.time_limit
        while True:
            if self._main.acquire(timeout=cfg.poll_interval):
                return
            now = time.monotonic()
            seen = self._progress_ticks
            if seen != ticks:
                ticks = seen
                deadline = now + cfg.time_limit
                continue
            if now < deadline:
                continue
            # Stalled.  Raise the teardown flag first: any worker that
            # reaches an instrumented point from here on aborts instead of
            # mutating scheduler state.  Then grant one grace poll in case
            # the execution was completing at this very instant.
            self._tearing_down = True
            if self._main.acquire(timeout=cfg.poll_interval):
                outcome = self._current_outcome()
                if outcome.status == "complete":
                    # Genuine completion that raced the watchdog: the flag
                    # was never observed by anyone (all bodies already
                    # finished), so clear it and carry on.
                    self._tearing_down = False
                return
            self._finish_divergent(cfg)
            return

    def _enabled_tids(self) -> list[int]:
        return [w.tid for w in self._active if w.enabled()]

    def _decide(
        self, kind: str, options: tuple, running: int | None, free: bool = False
    ) -> Any:
        strategy = self._strategy
        assert strategy is not None
        outcome = self._current_outcome()
        if len(options) == 1:
            chosen = options[0]
        else:
            chosen = strategy.decide(kind, options, running, free)
            if chosen not in options:
                raise SchedulerError(
                    f"strategy chose {chosen!r}, not among options {options!r}"
                )
        outcome.decisions.append(Decision(kind, options, chosen, running, free))
        return chosen

    def _transfer(self, worker: _Worker, free: bool = False) -> None:
        """Pick the next thread to run and pass the baton if it changed."""
        enabled = self._enabled_tids()
        if not enabled:
            # If some thread is merely spin-yielded (it would be enabled
            # were it not waiting for others to progress), everyone is
            # spinning on everyone: a livelock rather than a deadlock.
            spinning = any(
                w.yielded and (w.state in (_UNSTARTED, _RUNNABLE)
                               or (w.state == _BLOCKED and w.predicate()))
                for w in self._active
            )
            self._finish_stuck("livelock" if spinning else "deadlock")
            raise ExecutionAbort()
        chosen = self._decide("thread", tuple(enabled), worker.tid, free)
        if chosen == worker.tid:
            worker.state = _RUNNABLE
            worker.predicate = None
            return
        target = self._active[chosen]
        self._hand_baton(target)
        worker.baton.acquire()
        if self._tearing_down:
            raise ExecutionAbort()
        worker.state = _RUNNABLE
        worker.predicate = None

    def _pick_next(self) -> _Worker | None:
        enabled = self._enabled_tids()
        if not enabled:
            return None
        running = self._running.tid if self._running is not None else None
        chosen = self._decide("thread", tuple(enabled), running, free=True)
        return self._active[chosen]

    def _on_thread_done(self) -> None:
        """Called from a worker whose body just finished."""
        self._progress_ticks += 1
        if all(w.state == _DONE for w in self._active):
            self._main.release()
            return
        # A thread completing is progress: re-enable spin-yielded threads.
        for worker in self._active:
            worker.yielded = False
        nxt = self._pick_next()
        if nxt is None:
            self._finish_stuck("deadlock")
            return
        self._hand_baton(nxt)

    def _finish_stuck(self, kind: str) -> None:
        """Mark the current execution stuck and wake the controller.

        Called from the running worker; the caller is responsible for
        raising :class:`ExecutionAbort` afterwards (when mid-body).
        """
        outcome = self._current_outcome()
        outcome.status = "stuck"
        outcome.stuck_kind = kind
        outcome.pending_threads = tuple(
            w.tid for w in self._active if w.state != _DONE
        )
        # Snapshot now: the caller holds the baton, every other worker is
        # parked, so the states cannot change under us.
        self._abort_acks = [
            w for w in self._active if w.state in (_RUNNABLE, _BLOCKED)
        ]
        self._abort_unstarted = [
            w for w in self._active if w.state == _UNSTARTED
        ]
        self._tearing_down = True
        self._main.release()

    def _teardown(self) -> None:
        """Abort any workers still alive after a stuck execution.

        The wait for each worker's acknowledgement is bounded by
        ``abort_timeout``: a worker that swallows :class:`ExecutionAbort`
        (hostile cleanup code) or wedges on the unwind path is abandoned —
        its pool slot is replaced with a fresh worker — so a single bad
        execution can never poison the pool for the executions after it.
        """
        if not self._tearing_down:
            return
        for worker in self._abort_unstarted:
            # Never scheduled: clear the assignment in place; the worker is
            # parked on its baton and will not observe the body slot.
            worker.body = None
            worker.state = _DONE
        for worker in self._abort_acks:
            # The stuck-detecting worker (if mid-body) unwinds on its own;
            # parked workers need their baton released to observe the abort.
            if worker is not self._running:
                worker.baton.release()
        deadline = time.monotonic() + self.abort_timeout
        for worker in self._abort_acks:
            remaining = deadline - time.monotonic()
            if not worker.ack.wait(timeout=max(0.0, remaining)):
                self._abandon(worker)
        self._abort_acks = []
        self._abort_unstarted = []
        self._tearing_down = False
        self._running = None

    def _finish_divergent(self, cfg: WatchdogConfig) -> None:
        """Tear down a wedged execution from the controller side.

        Entered with ``_tearing_down`` already raised.  Unlike
        :meth:`_finish_stuck` this runs on the controller thread while the
        wedged worker still nominally holds the baton, so the victim is
        interrupted with an asynchronously injected
        :class:`ExecutionAbort`; workers that fail to acknowledge within
        ``abandon_timeout`` are abandoned and their pool slots replaced.
        """
        outcome = self._current_outcome()
        outcome.status = "divergent"
        outcome.stuck_kind = None
        outcome.pending_threads = tuple(
            w.tid for w in self._active if w.state != _DONE
        )
        victim = self._running
        acks = [w for w in self._active if w.state in (_RUNNABLE, _BLOCKED)]
        for worker in self._active:
            if worker.state == _UNSTARTED:
                worker.body = None
                worker.state = _DONE
        for worker in acks:
            # Parked workers observe the abort via their baton; the victim
            # is (by definition) not parked and needs the async exception.
            if worker is not victim:
                worker.baton.release()
        if victim is not None and victim in acks:
            interrupt_thread(victim.os_thread)
        deadline = time.monotonic() + cfg.abandon_timeout
        for worker in acks:
            remaining = deadline - time.monotonic()
            if not worker.ack.wait(timeout=max(0.0, remaining)):
                self._abandon(worker)
        # A completion signal may have raced the teardown; swallow it so it
        # cannot leak into the next execution's wait.
        while self._main.acquire(blocking=False):
            pass
        self._abort_acks = []
        self._abort_unstarted = []
        self._tearing_down = False
        self._running = None

    def _abandon(self, worker: _Worker) -> None:
        """Write off *worker* and put a fresh worker in its pool slot.

        Abandonment must precede clearing ``_tearing_down`` (see the read
        ordering in :meth:`_Worker._loop`).  The stale daemon thread exits
        on its own if it ever wakes; until then it is parked harmlessly.
        """
        worker.abandoned = True
        self._workers[worker.slot] = _Worker(self, worker.slot)


class SchedulingStrategy:
    """Protocol for exploration strategies (see :mod:`.strategies`)."""

    def more(self) -> bool:
        """Whether another execution should be run."""
        raise NotImplementedError

    def begin(self) -> None:
        """Called before each execution starts."""
        raise NotImplementedError

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        """Return the chosen alternative for a decision point."""
        raise NotImplementedError

    def finish(self, outcome: ExecutionOutcome) -> None:
        """Called after each execution with its outcome."""
        raise NotImplementedError
