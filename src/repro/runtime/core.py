"""The exploration core: one copy of the scheduling semantics (CHESS substitute).

The paper builds Line-Up on top of the CHESS stateless model checker, which
enumerates thread schedules of .NET code by context-switching only at
instrumented synchronization points.  Its soundness and completeness
arguments need exactly one property of that substrate: it enumerates *all*
interleavings at the granularity of the instrumented operations and detects
when no thread is enabled.  This module states that property once, for
Python, as an *effect interpreter* over logical threads:

* Exactly one logical thread executes at any instant.  Every instrumented
  primitive (volatile read/write, CAS, lock acquire, ...) performs a
  ``schedule_point`` before touching shared state; there the core may hand
  control to another enabled thread.  Which thread continues is a
  *decision*; the sequence of decisions fully determines the execution,
  which is what makes stateless replay-based exploration possible.
* Blocking primitives perform ``block_until``; a blocked thread is
  re-enabled when its predicate holds.  If no thread is enabled the
  execution is *stuck* (a deadlock), which Line-Up's generalized
  linearizability definition treats as an observable outcome rather than
  a test-harness failure.
* Bounded nondeterminism inside the implementation under test (for example
  a lock acquire that may time out) is a ``choose``: a decision like any
  other, enumerated by the exploration strategies.

Two scheduling modes correspond to the two phases of the Line-Up check:

* **serial mode** (phase 1): context switches happen only at operation
  boundaries; an operation that blocks makes the whole execution stuck
  immediately (a *stuck serial history* in the paper's terminology).
* **concurrent mode** (phase 2): every scheduling point is a potential
  context switch, optionally preemption-bounded.

:class:`SchedulerCore` decides *who may run*; an engine subclass supplies
only *how it is made to run* (:mod:`repro.runtime.scheduler`: pooled OS
threads passing a lock baton; :mod:`repro.runtime.coop`: generators
resumed with ``send()``).  An engine reports what the running body did —
:meth:`~SchedulerCore.step` for an effect, :meth:`~SchedulerCore.resume`
when a parked thread regains control, :meth:`~SchedulerCore.thread_done`
when a body returns — and the core answers with the thread to run next.
Both engines therefore enumerate the identical ordered decision tree, and a
decision prefix recorded on one replays on the other.

Serial mode needs no engine: :class:`SerialDriver` (below) runs each
operation as a plain call, answered by the same interpreter.

**The one error rule.**  An exception raised by ``strategy.decide``, an
invalid choice, a hostile ``block_until`` predicate or a bad argument
leaves ``step``/``resume`` as an ordinary exception while a body is
running: the engine raises it inside that body (uncaught, it lands in
``outcome.crashes``).  At a decision taken when *no* body is running — the
initial pick and every pick after a thread completes — there is nobody to
raise it in, so it leaves :meth:`~SchedulerCore.execute`; the engine tears
the parked threads down first and the scheduler stays usable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.runtime.errors import ExecutionAbort, SchedulerError
from repro.runtime.watchdog import WatchdogConfig, interrupt_thread

__all__ = [
    "Decision",
    "ExecutionOutcome",
    "LogicalThread",
    "SchedulerCore",
    "SchedulingStrategy",
    "SerialDriver",
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


# Logical-thread states (compared with ``is``: these objects are the states).
UNSTARTED = "unstarted"  # body assigned, never scheduled
RUNNABLE = "runnable"  # started, not blocked (may or may not hold control)
BLOCKED = "blocked"  # waiting inside block_until
DONE = "done"  # body finished (or aborted) for this execution

#: Effects a running body performs (tuple tag in slot 0).
E_SCHED = 0  #: ``(E_SCHED, boundary)``
E_BLOCK = 1  #: ``(E_BLOCK, predicate, harness)``
E_CHOOSE = 2  #: ``(E_CHOOSE, n)``
E_SPIN = 3  #: ``(E_SPIN,)``


class Decision:
    """One decision made during an execution.

    ``kind`` is ``"thread"`` (which logical thread continues) or ``"value"``
    (a bounded nondeterministic choice made by the code under test).
    ``options`` is the tuple of alternatives that were available, ``chosen``
    the selected element, and ``running`` the logical thread that held
    control when the decision was made (``None`` for the initial decision).
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


class LogicalThread:
    """What the core knows about one logical thread of an execution.

    Engines subclass it with whatever carries the body (a pooled OS
    thread, a generator).
    """

    __slots__ = (
        "tid", "state", "predicate", "fresh", "yielded", "resume", "value",
    )

    def __init__(self, tid: int = -1) -> None:
        self.reset(tid)

    def reset(self, tid: int) -> None:
        """Become logical thread *tid* of a new execution."""
        self.tid = tid
        self.state = UNSTARTED
        self.predicate: Callable[[], bool] | None = None
        # True until the body reaches its first scheduling point.  That
        # point is redundant: the decision that scheduled this body already
        # chose it, and no shared access happened in between, so branching
        # again would only enumerate duplicate interleavings.
        self.fresh = True
        # Set by spin_wait: the thread stays disabled until another thread
        # makes progress (fair scheduling for spin loops, see the paper's
        # Section 4 note that "support for fairness is important").
        self.yielded = False
        # Mid-``block_until`` continuation: (predicate, harness) to
        # re-check when this thread is next granted control.
        self.resume: tuple | None = None
        # Result of the thread's last ``choose``, for the engine to deliver.
        self.value: Any = None


class SchedulerCore:
    """Enumerates thread interleavings of instrumented Python code.

    One scheduler is reused across many executions and tests.  It is not
    itself thread-safe: drive it from a single controller thread
    (typically the pytest process) via :meth:`explore` or :meth:`execute`.

    An engine subclass provides ``_spawn(bodies)`` (one
    :class:`LogicalThread` per body), ``_drive(first)`` (run the execution
    from its first thread to its end, tear down whatever is still alive,
    and raise a no-body-running error stored meanwhile), ``_perform(effect)``
    (what a direct call of a suspending operation below does) and may
    extend ``_halt()``; it calls :meth:`step`, :meth:`resume` and
    :meth:`thread_done` as its bodies run.
    """

    #: Engine name (one of ``repro.runtime.ENGINES``); set by subclasses.
    engine: str
    #: Whether instrumented accesses are recorded into the outcome.
    footprints = True

    def __init__(
        self,
        max_steps: int = 20_000,
        watchdog: WatchdogConfig | float | None = None,
    ) -> None:
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if isinstance(watchdog, (int, float)) and not isinstance(watchdog, bool):
            watchdog = WatchdogConfig(time_limit=float(watchdog))
        self.max_steps = max_steps
        self.watchdog = watchdog
        # Monotonic progress counter, bumped by steps, context switches and
        # thread completions.  The stall detector declares an execution
        # divergent when this stops moving for ``watchdog.time_limit``
        # seconds.  Lost increments under concurrent bumps are harmless:
        # the detector only cares whether the value *changed*.
        self._progress_ticks = 0
        self._stall_ticks: int | None = None
        self._stall_deadline = 0.0
        # Location ids are issued per execution (reset after each one, so
        # factory-time allocations for the *next* execution restart at 1).
        self._location_serial = 0
        # Per-execution state.
        self._threads: Sequence[LogicalThread] = ()
        self._strategy: SchedulingStrategy | None = None
        self._serial = False
        self._outcome: ExecutionOutcome | None = None
        self._running: LogicalThread | None = None  # who holds control
        self._any_yielded = False
        self._tearing_down = False
        self._in_execution = False

    # ------------------------------------------------------------------
    # Controller-side API
    # ------------------------------------------------------------------

    def execute(
        self,
        bodies: Sequence[Callable[[], None]],
        strategy: SchedulingStrategy,
        serial: bool = False,
    ) -> ExecutionOutcome:
        """Run one execution of *bodies* under *strategy*'s decisions.

        Each element of *bodies* becomes a logical thread.  Returns the
        :class:`ExecutionOutcome`; the scheduler itself is ready for the
        next execution afterwards — also when a strategy error at a
        decision with no body running leaves this call as an exception.
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
        strategy: SchedulingStrategy,
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

    def _execute(
        self,
        bodies: list[Callable[[], None]],
        strategy: SchedulingStrategy,
        serial: bool,
    ) -> ExecutionOutcome:
        self._threads = self._spawn(bodies)
        self._strategy = strategy
        self._serial = serial
        self._outcome = outcome = ExecutionOutcome(status="complete")
        self._running = None
        self._any_yielded = False
        self._tearing_down = False
        strategy.begin()
        try:
            self._drive(self._next_thread(None, True))
        finally:
            self._outcome = None
            self._strategy = None
            self._threads = ()
            self._running = None
            # Reset here (not at execute() entry): the bodies factory for
            # the next execution runs *before* execute() and already
            # allocates instrumented locations, which must start from 1.
            self._location_serial = 0
        strategy.finish(outcome)
        return outcome

    # ------------------------------------------------------------------
    # Controlled-thread API shared by both engines
    # ------------------------------------------------------------------

    def current_thread(self) -> int:
        """Logical thread id of the running thread (0-based)."""
        if self._running is None:
            raise SchedulerError("not running on a scheduler-controlled thread")
        return self._running.tid

    def thread_count(self) -> int:
        """Number of logical threads in the current execution."""
        return len(self._threads)

    def record_event(self, payload: Any) -> None:
        """Append a harness-level event (call/return) to the execution."""
        self._current_outcome().record_event(payload)

    def record_access(self, payload: Any) -> None:
        """Append a memory-access record for the analysis tools."""
        self._current_outcome().record_access(payload)

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

    def schedule_point(self, boundary: bool = False) -> None:
        """A potential context switch before a shared-state access.

        In serial mode only *boundary* points (between operations of the
        test) allow a switch; interior points return immediately so that
        operations execute atomically, producing serial histories.
        """
        self._perform((E_SCHED, boundary))

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
        self._perform((E_BLOCK, predicate, harness))

    def choose(self, n: int) -> int:
        """Resolve a bounded nondeterministic choice in the code under test.

        Returns an integer in ``range(n)``.  Exploration strategies
        enumerate or sample the alternatives exactly like thread decisions;
        this models, for example, a lock acquire that may time out.
        """
        return self._perform((E_CHOOSE, n)).value

    def yield_point(self) -> None:
        """An explicit yield (spin-wait hint); same as a scheduling point."""
        self._perform((E_SCHED, False))

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
        self._perform((E_SPIN,))

    def _current_outcome(self) -> ExecutionOutcome:
        if self._outcome is None:
            raise SchedulerError("no execution in progress")
        return self._outcome

    def _record_crash(self, tid: int, exc: BaseException) -> None:
        if self._outcome is not None:
            self._outcome.crashes.append((tid, exc))

    # ------------------------------------------------------------------
    # The effect interpreter
    # ------------------------------------------------------------------

    def step(self, thread: LogicalThread, effect: tuple) -> LogicalThread:
        """Interpret one *effect* performed by the running *thread*.

        Returns the thread to run next: *thread* itself to continue, or
        another one to switch to (the engine parks *thread* and calls
        :meth:`resume` when it is chosen again).  Raises
        :class:`ExecutionAbort` when the execution is over for *thread*
        (it got stuck, or is being torn down); any other exception is for
        the engine to raise inside *thread*'s body (the one error rule).
        """
        if self._tearing_down:
            # Cleanup code on the unwind path (context managers, finally
            # blocks) reached an instrumented point: abort it rather than
            # touch scheduler state, or it would clobber the
            # ExecutionAbort with spurious errors.
            raise ExecutionAbort()
        kind = effect[0]
        if kind == E_CHOOSE and effect[1] <= 0:
            raise ValueError("choose() needs at least one alternative")
        if self._any_yielded:
            self._progress(thread)
        # The first scheduling point of a body is redundant (see
        # LogicalThread.fresh): no step, no decision.  A value decision or a
        # spin wait is never redundant.
        first = thread.fresh and (kind == E_SCHED or kind == E_BLOCK)
        thread.fresh = False
        if not first:
            outcome = self._outcome
            outcome.steps += 1
            self._progress_ticks += 1
            if outcome.steps > self.max_steps:
                self._mark_stuck("livelock")
                raise ExecutionAbort()
        if kind == E_SCHED:  # schedule_point(boundary) / yield_point()
            # In serial mode only boundary points (between operations of
            # the test) allow a switch, so operations execute atomically.
            if first or (self._serial and not effect[1]):
                return thread
            return self._next_thread(thread, effect[1])
        if kind == E_BLOCK:  # block_until(predicate, harness)
            if not first and not self._serial:
                # The wait itself is a scheduling point even when it would
                # not block, mirroring CHESS's instrumented sync operations.
                nxt = self._next_thread(thread, False)
                if nxt is not thread:
                    thread.resume = effect[1:]
                    return nxt
            return self._block(thread, effect[1], effect[2])
        if kind == E_CHOOSE:  # choose(n)
            n = effect[1]
            thread.value = (
                0 if n == 1 else self._decide("value", tuple(range(n)), thread.tid)
            )
            return thread
        if kind == E_SPIN:  # spin_wait()
            if self._serial:
                # No other operation may overlap, so the wait can never be
                # satisfied: stuck at once, like a blocking operation.
                self._mark_stuck("livelock")
                raise ExecutionAbort()
            thread.yielded = True
            self._any_yielded = True
            return self._next_thread(thread, False)
        raise SchedulerError(f"unknown effect: {effect!r}")

    def resume(self, thread: LogicalThread) -> LogicalThread:
        """*thread* regained control: finish its interrupted ``block_until``.

        Same answer and exceptions as :meth:`step`.
        """
        if self._tearing_down:
            raise ExecutionAbort()
        pending = thread.resume
        if pending is None:
            return thread
        thread.resume = None
        return self._block(thread, *pending)

    def thread_done(self, thread: LogicalThread) -> LogicalThread | None:
        """*thread*'s body returned: pick who runs next.

        Returns None when every body has finished.  Raises
        :class:`ExecutionAbort` when the remaining threads are stuck; any
        other exception (no body is running) must leave :meth:`execute`.
        """
        thread.state = DONE
        thread.predicate = None
        thread.resume = None
        self._progress_ticks += 1
        threads = self._threads
        if all(t.state is DONE for t in threads):
            return None
        # A thread completing is progress: re-enable spin-yielded threads.
        for t in threads:
            t.yielded = False
        self._any_yielded = False
        return self._next_thread(thread, True)

    def _block(
        self, thread: LogicalThread, predicate: Callable[[], bool], harness: bool
    ) -> LogicalThread:
        """The ``while not predicate()`` loop of ``block_until``."""
        while not predicate():
            if self._serial and not harness:
                # A serial history cannot overlap another operation with
                # the pending one (this yields the paper's stuck serial
                # histories).  Harness waits are test infrastructure and
                # block normally in both modes.
                self._mark_stuck("deadlock")
                raise ExecutionAbort()
            thread.state = BLOCKED
            thread.predicate = predicate
            nxt = self._next_thread(thread, False)
            if nxt is not thread:
                thread.resume = (predicate, harness)
                return nxt
            # Chosen again: the predicate held at decision time and
            # nothing ran since, so the re-check exits the loop.
        return thread

    def _progress(self, thread: LogicalThread) -> None:
        """*thread* made progress: re-enable threads spin-waiting on it.

        Callers gate on ``_any_yielded``, so this costs nothing unless some
        thread is actually spin-waiting — the overwhelmingly common case.
        The flag stays set while *thread* itself is still marked yielded
        (only other threads' progress may clear its mark).
        """
        for other in self._threads:
            if other is not thread:
                other.yielded = False
        self._any_yielded = thread.yielded

    def _decide(
        self, kind: str, options: tuple, running: int | None, free: bool = False
    ) -> Any:
        """Let the strategy pick among *options* and record the decision.

        A single option is recorded without consulting the strategy.
        """
        if len(options) == 1:
            chosen = options[0]
        else:
            chosen = self._strategy.decide(kind, options, running, free)
            if chosen not in options:
                raise SchedulerError(
                    f"strategy chose {chosen!r}, not among options {options!r}"
                )
        self._outcome.decisions.append(
            Decision(kind, options, chosen, running, free)
        )
        return chosen

    def _next_thread(
        self, running: LogicalThread | None, free: bool
    ) -> LogicalThread:
        """Scan the enabled set and decide which thread holds control next.

        *running* is the thread deciding (None for the initial pick).  With
        no thread enabled the execution is marked stuck and
        :class:`ExecutionAbort` raised.  Runs once per scheduling step —
        the single hottest path of both engines.
        """
        threads = self._threads
        enabled = tuple([
            t.tid
            for t in threads
            if not t.yielded
            and (
                t.state is RUNNABLE
                or t.state is UNSTARTED
                or (t.state is BLOCKED and t.predicate())
            )
        ])
        if not enabled:
            # If some thread is merely spin-yielded (it would be enabled
            # were it not waiting for others to progress), everyone is
            # spinning on everyone: a livelock rather than a deadlock.
            spinning = any(
                t.yielded
                and (
                    t.state is RUNNABLE
                    or t.state is UNSTARTED
                    or (t.state is BLOCKED and t.predicate())
                )
                for t in threads
            )
            self._mark_stuck("livelock" if spinning else "deadlock")
            raise ExecutionAbort()
        chosen = self._decide(
            "thread", enabled, None if running is None else running.tid, free
        )
        nxt = threads[chosen]
        if nxt is not running:
            self._running = nxt
            self._progress_ticks += 1
        nxt.state = RUNNABLE
        nxt.predicate = None
        return nxt

    def _mark(self, status: str, stuck_kind: str | None) -> None:
        outcome = self._current_outcome()
        outcome.status = status
        outcome.stuck_kind = stuck_kind
        outcome.pending_threads = tuple(
            t.tid for t in self._threads if t.state is not DONE
        )

    def _mark_stuck(self, kind: str) -> None:
        """Mark the execution stuck, on the running thread.

        The caller raises :class:`ExecutionAbort` afterwards.
        """
        self._mark("stuck", kind)
        self._halt()

    def _mark_divergent(self) -> None:
        """Mark the execution cut off by the watchdog mid-operation."""
        self._mark("divergent", None)
        self._tearing_down = True

    def _halt(self) -> None:
        """The running thread ends the execution before every body finished.

        From here on any instrumented point aborts its caller.  Engines
        extend this with whatever wakes their teardown.
        """
        self._tearing_down = True

    def _stalled(self) -> bool:
        """The stall detector: no progress for ``watchdog.time_limit``?

        Polled by whoever polices the execution (the baton controller
        between waits, coop's watchdog thread); ``_stall_ticks = None``
        restarts the clock.
        """
        now = time.monotonic()
        seen = self._progress_ticks
        if seen != self._stall_ticks:
            self._stall_ticks = seen
            self._stall_deadline = now + self.watchdog.time_limit
            return False
        return now >= self._stall_deadline


#: Bound on repeated aborts thrown into one generator during teardown
#: (the analogue of the baton engine's bounded abort acknowledgement):
#: hostile cleanup code that keeps yielding through aborts is abandoned.
_ABORT_THROWS = 100


class Task(LogicalThread):
    """A logical thread run as a lazily created generator."""

    __slots__ = ("factory", "gen", "throw")

    def __init__(self, tid: int, factory: Callable[[], Any]) -> None:
        super().__init__(tid)
        self.factory = factory
        self.gen = None
        # Exception to ``throw()`` at the next resumption (``value``, a
        # choose result, is delivered with ``send()``).
        self.throw: BaseException | None = None


class Trampoline(SchedulerCore):
    """The generator mechanism: tasks resumed with ``send()``.

    Shared by the coop engine (bodies compiled into generators) and the
    :class:`SerialDriver` (harness programs, which are generators).
    """

    def _advance(self, task: Task) -> Task | None:
        """Grant control to *task*; return the next task (None = over).

        The task finishes any interrupted ``block_until`` loop, then its
        generator runs until an effect makes the core switch threads, or
        it finishes or crashes.  A core exception while the body runs is
        thrown into the generator (the one error rule).
        """
        if task.resume is not None:
            try:
                nxt = self.resume(task)
            except Exception as exc:
                task.throw = exc
            else:
                if nxt is not task:
                    return nxt
        while True:
            gen = task.gen
            try:
                if gen is None:
                    gen = task.gen = task.factory()
                    effect = gen.send(None)
                elif task.throw is not None:
                    exc = task.throw
                    task.throw = None
                    effect = gen.throw(exc)
                else:
                    value, task.value = task.value, None
                    effect = gen.send(value)
            except StopIteration:
                break
            except ExecutionAbort:
                if self._tearing_down or self._running is not task:
                    # A watchdog injection surfacing through the SUT (late,
                    # in an abandoned serial host: *task* no longer runs).
                    raise
                # A spontaneous abort ends the body silently, exactly as
                # the baton worker loop swallows it.
                break
            except BaseException as exc:
                self._record_crash(task.tid, exc)
                break
            try:
                nxt = self.step(task, effect)
            except Exception as exc:
                task.throw = exc
                continue
            if nxt is not task:
                return nxt
        task.gen = None
        return self.thread_done(task)

    def _teardown_tasks(self, tasks: Sequence[Task], current: Task | None) -> None:
        """Unwind generators still alive when the execution is over.

        *current*, the task that held control, unwinds first (it is
        mid-body, like the baton's halting worker), then the rest in tid
        order.  Each gets :class:`ExecutionAbort` thrown in; cleanup code
        that reaches an instrumented point on the way out aborts again,
        with :data:`_ABORT_THROWS` bounding hostile swallow-and-continue.
        """
        if current is not None and current.gen is not None:
            self._abort_task(current)
        for task in tasks:
            if task.gen is not None:
                self._abort_task(task)

    def _abort_task(self, task: Task) -> None:
        gen = task.gen
        task.gen = None
        for _ in range(_ABORT_THROWS):
            try:
                gen.throw(ExecutionAbort)
            except StopIteration:
                return
            except ExecutionAbort:
                return
            except BaseException as exc:
                self._record_crash(task.tid, exc)
                return
            # The generator yielded another effect while unwinding
            # (cleanup hit an instrumented point): abort it again.
        # Hostile generator absorbed every abort: abandon the reference
        # (the baton engine abandons such workers the same way).


class SerialDriver(Trampoline):
    """Serial mode without an engine (phase 1).

    Read it off :meth:`~SchedulerCore.step`: in serial mode a non-boundary
    ``E_SCHED`` returns the running thread, a non-harness ``E_BLOCK``
    passes or marks the execution stuck, ``E_CHOOSE`` returns the running
    thread and ``E_SPIN`` sticks at once.  While an operation runs no
    effect can switch threads, so a logical thread needs no stack of its
    own.  The driver therefore takes per-thread *programs* instead of
    bodies: generator functions that yield only the harness-level effects
    — the boundary ``(E_SCHED, True)`` before an operation, ``(E_BLOCK,
    predicate, True)`` for a harness wait — and run each operation as a
    plain call in between.  What that call performs is answered inline by
    ``step``, so decisions, events, segments, steps and the stuck
    classification are those of an engine's ``execute(..., serial=True)``,
    which stays the reference.  Nothing records accesses: code under test
    allocates its cells on this object, and a serial outcome is only ever
    folded into a serial history.

    With a watchdog each execution runs on a host thread of its own,
    policed from the calling thread like a baton worker: a wedged
    operation gets an injected :class:`ExecutionAbort` and, parked in a
    blocking C call, is abandoned.
    """

    footprints = False

    def _spawn(self, programs: list[Callable[[], Any]]) -> list[Task]:
        return [Task(tid, program) for tid, program in enumerate(programs)]

    def _perform(self, effect: tuple) -> LogicalThread:
        thread = self._running
        if thread is None:
            raise SchedulerError("not running on a scheduler-controlled thread")
        if self.step(thread, effect) is not thread:
            raise SchedulerError(
                "an effect inside an operation cannot switch threads: the "
                "serial driver runs serial mode only"
            )
        return thread

    def _drive(self, first: Task) -> None:
        cfg = self.watchdog
        if cfg is None:
            return self._run(first, self._threads)
        threads, errors = self._threads, []
        host = threading.Thread(
            target=self._run,
            args=(first, threads, errors),
            name="lineup-serial-host",
            daemon=True,
        )
        self._stall_ticks = None
        host.start()
        host.join(cfg.poll_interval)
        while host.is_alive() and not self._stalled():
            host.join(cfg.poll_interval)
        if host.is_alive():
            # Stalled.  Flag the teardown first so an instrumented point
            # reached from here on aborts, grant one grace poll, then inject;
            # a host that never acknowledges is abandoned where it is.
            self._tearing_down = True
            host.join(cfg.poll_interval)
            if host.is_alive() and interrupt_thread(host):
                host.join(cfg.abandon_timeout)
        if errors:
            raise errors[0]
        if self._current_outcome().status == "complete" and any(
            t.state is not DONE for t in threads
        ):
            self._mark_divergent()

    def _run(
        self,
        task: Task | None,
        tasks: Sequence[Task],
        errors: list[Exception] | None = None,
    ) -> None:
        """The trampoline loop.  Touches only *tasks* on the way out: a
        host abandoned executions ago may wake up in here."""
        try:
            while task is not None:
                task = self._advance(task)
        except ExecutionAbort:
            pass  # stuck, or cut off by the watchdog: the outcome says which
        except Exception as exc:  # no body was running: leaves execute()
            if errors is None:
                raise
            errors.append(exc)
        finally:
            self._teardown_tasks(tasks, None)
