"""Test harness: runs a finite test under the model checker (Section 4.1).

The harness turns a :class:`FiniteTest` into thread bodies for the
scheduler (phase 2) and into programs for the serial driver (phase 1,
see :class:`repro.runtime.core.SerialDriver`), records call/return events with
argument and result values (exactly the instrumentation the paper adds to
CHESS), and rebuilds histories from execution outcomes.

Layout of one execution:

* thread A runs the *init* sequence first (other threads gate on it), then
  its own column, then — after every column finished — the *final*
  sequence.  Init/final operations are recorded like ordinary operations.
* an operation's exceptions are captured and become its response, so that
  "sometimes raises" is observable nondeterminism rather than a crash.
* executions in which some operation can never complete come back as
  *stuck* histories (deadlock or livelock), feeding Definitions 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.budget import ExplorationControl
from repro.core.events import Event, Invocation, Response, typed
from repro.core.history import History
from repro.core.spec import ObservationSet
from repro.core.testcase import FiniteTest
from repro.runtime import (
    DEFAULT_ENGINE,
    DFSStrategy,
    ExecutionAbort,
    ExecutionOutcome,
    Runtime,
    Scheduler,
    SchedulerError,
    SchedulingStrategy,
    WatchdogConfig,
    make_scheduler,
)
from repro.runtime.core import E_BLOCK, E_SCHED, SerialDriver

if TYPE_CHECKING:  # the checker imports this module
    from repro.core.checker import CheckConfig

__all__ = ["HarnessError", "OpMark", "Phase1Stats", "SystemUnderTest", "TestHarness"]


class HarnessError(RuntimeError):
    """The harness itself failed (e.g. the test body raised unexpectedly)."""


@dataclass(frozen=True)
class OpMark:
    """Marker in the access stream delimiting one operation's accesses.

    The harness appends a ``begin`` mark right before dispatching an
    invocation and an ``end`` mark right after it returns; the analysis
    tools (conflict serializability in particular) use the marks to
    partition memory accesses into transactions.
    """

    thread: int
    op_index: int
    kind: str  #: "begin" or "end"


class _EventTable:
    """The events of one test, each built once.

    A test fixes its call events and operation marks before it starts, and
    its executions return the same few values again and again; every
    execution of both phases records the objects held here instead of
    allocating equal ones.  ``slots`` maps ``(thread, op_index)`` to the
    operation's call event and its begin / end marks.  ``returns`` interns
    return events under the :func:`~repro.core.events.typed` key —
    ``Response('ok', 1)`` and ``Response('ok', True)`` are equal, print
    differently and stay two events; a response whose value is not plain
    (or not hashable) is recorded as a fresh event and not interned.

    Every event held gets a small integer *code*, looked up by the event's
    ``id()`` — sound because the table keeps the event alive, so no other
    live object can carry that id.  Codes are drawn from the harness's
    counter and so never repeat across the tables of one harness.
    """

    __slots__ = ("test", "slots", "returns", "codes", "_fresh_code")

    def __init__(self, test: FiniteTest, fresh_code: Iterator[int]) -> None:
        self.test = test
        self.slots: dict[tuple[int, int], tuple[Event, OpMark, OpMark]] = {}
        self.returns: dict[tuple, Event] = {}
        self.codes: dict[int, int] = {}
        self._fresh_code = fresh_code

    def slot(
        self, thread: int, index: int, invocation: Invocation
    ) -> tuple[Event, OpMark, OpMark]:
        """The call event and begin / end marks of operation *index* of
        *thread*, built when the operation first runs."""
        entry = self.slots.get((thread, index))
        if entry is None:
            call = Event.call(thread, index, invocation)
            self.codes[id(call)] = next(self._fresh_code)
            entry = self.slots[thread, index] = (
                call,
                OpMark(thread, index, "begin"),
                OpMark(thread, index, "end"),
            )
        return entry

    def returned(self, thread: int, index: int, response: Response) -> Event:
        """The return event of operation *index* of *thread* for *response*."""
        try:
            key = (thread, index, response.kind, typed(response.value))
            event = self.returns.get(key)
        except TypeError:
            key = event = None
        if event is None:
            event = Event.ret(thread, index, response)
            if key is not None:
                self.returns[key] = event
                self.codes[id(event)] = next(self._fresh_code)
        return event

    def history_key(self, history: History) -> tuple | None:
        """What a verdict on *history* may be remembered under: equal for
        two executions exactly when they recorded the same table events in
        the same order and ended alike.  None when some event is not in
        the table — its ``id()`` says nothing once the execution is gone."""
        codes = tuple(map(self.codes.get, map(id, history.events)))
        if None in codes:
            return None
        return (history.stuck, history.divergent, *codes)


@dataclass(frozen=True)
class SystemUnderTest:
    """A factory producing fresh instances of the implementation X.

    ``factory`` receives the :class:`Runtime` through which the instance
    must allocate all shared state, and returns the object whose methods
    the invocations name.  Line-Up treats the object as a black box: only
    its method results and blocking behaviour are observed.
    """

    factory: Callable[[Runtime], Any]
    name: str = "subject"


@dataclass
class Phase1Stats:
    """Statistics of a serial-enumeration run (Table 2, phase 1 columns)."""

    executions: int = 0
    histories: int = 0  #: distinct serial histories recorded
    stuck_histories: int = 0
    divergent: int = 0  #: executions cut off by the watchdog
    #: why enumeration stopped early ("deadline", "executions",
    #: "decisions", "interrupted"), or None.
    stop_reason: str | None = None
    #: False when the enumeration did not exhaust the serial executions
    #: (budget trip, interrupt, or the legacy max_executions cap).
    complete: bool = True


class TestHarness:
    """Runs finite tests against one system under test.

    Owns (or borrows) a :class:`Scheduler`; reuse one harness across many
    tests — the underlying worker threads are pooled.  Use as a context
    manager, or call :meth:`close` when done (only needed for owned
    schedulers).
    """

    def __init__(
        self,
        subject: SystemUnderTest,
        scheduler: Scheduler | None = None,
        max_steps: int = 20_000,
        watchdog: WatchdogConfig | float | None = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.subject = subject
        self._owns_scheduler = scheduler is None
        self.scheduler = (
            scheduler
            if scheduler is not None
            else make_scheduler(engine, max_steps=max_steps, watchdog=watchdog)
        )
        self.runtime = Runtime(self.scheduler)
        # Phase 1 runs on no engine: serial executions never interleave, so
        # the serial driver runs each operation as a plain call.
        self._serial = SerialDriver(self.scheduler.max_steps, self.scheduler.watchdog)
        self._serial_runtime = Runtime(self._serial)
        # The event table of the test being run (one at a time: a campaign
        # reuses the harness, and the next test drops this one's table).
        self._fresh_code = count()
        self._table: _EventTable | None = None

    @classmethod
    def from_config(
        cls,
        subject: SystemUnderTest,
        cfg: "CheckConfig",
        scheduler: Scheduler | None = None,
    ) -> "TestHarness":
        """The harness a :class:`~repro.core.checker.CheckConfig` asks for
        (step cap, watchdog, engine) — the one place that reads them."""
        return cls(
            subject,
            scheduler=scheduler,
            max_steps=cfg.max_steps,
            watchdog=cfg.watchdog_seconds,
            engine=cfg.engine,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._owns_scheduler:
            self.scheduler.shutdown()

    def __enter__(self) -> "TestHarness":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- body construction ---------------------------------------------------

    @staticmethod
    def _thread_steps(test: FiniteTest) -> Callable[[int], Iterator[Any]]:
        """One execution's layout: ``steps(thread)`` yields, in program
        order, an :class:`Invocation` (the thread's next operation) or a
        predicate (a harness gate to wait on)."""
        state = {"init_done": False, "columns_done": 0}

        def steps(thread: int) -> Iterator[Any]:
            if thread == 0:
                yield from test.init
                state["init_done"] = True
            elif test.init:
                yield lambda: state["init_done"]
            yield from test.column(thread)
            state["columns_done"] += 1
            if thread == 0 and test.final:
                yield lambda: state["columns_done"] == test.n_threads
                yield from test.final

        return steps

    def _events(self, test: FiniteTest) -> _EventTable:
        """The event table of *test* — by identity: equal tests may print
        differently (``Put(1)`` / ``Put(True)``)."""
        table = self._table
        if table is None or table.test is not test:
            table = self._table = _EventTable(test, self._fresh_code)
        return table

    def _bodies(self, test: FiniteTest) -> list[Callable[[], None]]:
        """Fresh bodies (and a fresh subject instance) for one execution."""
        sched = self.scheduler
        obj = self.subject.factory(self.runtime)
        steps = self._thread_steps(test)
        table = self._events(test)

        def make_body(thread: int) -> Callable[[], None]:
            def body() -> None:
                index = 0
                for step in steps(thread):
                    if isinstance(step, Invocation):
                        call, begin, end = table.slot(thread, index, step)
                        sched.schedule_point(boundary=True)
                        sched.record_event(call)
                        sched.record_access(begin)
                        response = self._dispatch(obj, step)
                        sched.record_access(end)
                        sched.record_event(table.returned(thread, index, response))
                        index += 1
                    else:
                        sched.block_until(step, harness=True)

            return body

        return [make_body(t) for t in range(test.n_threads)]

    def _programs(self, test: FiniteTest) -> list[Callable[[], Iterator[tuple]]]:
        """The same execution as programs for the serial driver: only the
        harness-level effects are yielded, an operation is a plain call
        (and leaves no :class:`OpMark`: nothing reads phase-1 footprints)."""
        record = self._serial.record_event
        dispatch = self._dispatch
        obj = self.subject.factory(self._serial_runtime)
        steps = self._thread_steps(test)
        table = self._events(test)

        def make_program(thread: int) -> Callable[[], Iterator[tuple]]:
            def program() -> Iterator[tuple]:
                index = 0
                for step in steps(thread):
                    if isinstance(step, Invocation):
                        call, _, _ = table.slot(thread, index, step)
                        yield (E_SCHED, True)
                        record(call)
                        response = dispatch(obj, step)
                        record(table.returned(thread, index, response))
                        index += 1
                    else:
                        yield (E_BLOCK, step, True)

            return program

        return [make_program(t) for t in range(test.n_threads)]

    @staticmethod
    def _dispatch(obj: Any, invocation: Invocation) -> Response:
        if invocation.target is not None:
            # Multi-object test: the factory returned a mapping of named
            # objects (see repro.core.multi / the paper's Theorem 1).
            if not isinstance(obj, dict):
                raise HarnessError(
                    f"invocation targets object {invocation.target!r} but the "
                    "factory did not return a mapping of objects"
                )
            if invocation.target not in obj:
                raise HarnessError(f"no object named {invocation.target!r}")
            obj = obj[invocation.target]
        elif isinstance(obj, dict):
            raise HarnessError(
                "multi-object subject requires invocations with a target"
            )
        try:
            attr = getattr(obj, invocation.method)
        except AttributeError as exc:
            raise HarnessError(
                f"{type(obj).__name__} has no method {invocation.method!r}"
            ) from exc
        try:
            if callable(attr):
                return Response.of(attr(*invocation.args))
            if invocation.args:
                raise HarnessError(
                    f"{invocation.method} is a plain attribute; it takes no arguments"
                )
            return Response.of(attr)
        except (HarnessError, SchedulerError):
            # Runtime/harness misuse is a bug in the test setup or the
            # structure's use of the scheduler API, never a legitimate
            # response of the object under test.
            raise
        except ExecutionAbort:
            # Teardown unwind (stuck/divergent execution) — must keep
            # propagating or the abort handshake never completes.
            raise
        except BaseException as exc:  # the response *is* the exception
            # Includes KeyboardInterrupt/SystemExit raised *by the
            # subject*: a hostile operation must become an exceptional
            # response, not a crash of the checker.
            return Response.raised(exc)

    # -- running ----------------------------------------------------------------

    def history_from_outcome(
        self, outcome: ExecutionOutcome, test: FiniteTest
    ) -> History:
        if outcome.crashes:
            tid, exc = outcome.crashes[0]
            raise HarnessError(
                f"thread {tid} crashed outside an operation: {exc!r}"
            ) from exc
        # A divergent execution is classified as stuck: its pending
        # operation observably never responded, which is exactly what a
        # stuck history records (the watchdog merely bounded the wait).
        return History(
            outcome.events,
            test.n_threads,
            stuck=outcome.status != "complete",
            divergent=outcome.divergent,
        )

    def run_serial(
        self,
        test: FiniteTest,
        max_executions: int | None = None,
        *,
        observations: ObservationSet | None = None,
        stats: Phase1Stats | None = None,
        strategy: DFSStrategy | None = None,
        control: ExplorationControl | None = None,
        on_execution: Any = None,
    ) -> tuple[ObservationSet, Phase1Stats]:
        """Phase 1: enumerate all serial executions, synthesize the spec.

        Uses unbounded DFS (no preemption bounding — there are no
        preemptions in serial mode anyway), preserving the completeness
        guarantee of Theorem 5.

        *observations*/*stats*/*strategy* continue a previous partial run
        (checkpoint resume); *control* imposes an exploration budget and
        stop flag, recorded in ``stats.stop_reason`` when tripped;
        *on_execution* (called as ``on_execution(observations, stats,
        strategy)`` after each execution) is the checkpoint hook.
        """
        observations = (
            observations if observations is not None else ObservationSet(test.n_threads)
        )
        stats = stats if stats is not None else Phase1Stats()
        strategy = (
            strategy if strategy is not None else DFSStrategy(preemption_bound=None)
        )
        if control is not None:
            control.start()
        remaining = None
        if max_executions is not None:
            remaining = max(0, max_executions - stats.executions)
        for outcome in self.explore_serial(test, strategy, remaining):
            stats.executions += 1
            if control is not None:
                control.note(outcome)
            if outcome.divergent:
                stats.divergent += 1
            # Every execution is folded (and so checked for crashes); no
            # equivalence-class reduction here: phase 1 must enumerate every
            # distinct serial history for the Theorem 5 completeness
            # argument, and ``add`` drops only identical repeats.
            serial = self.history_from_outcome(outcome, test).to_serial()
            if observations.add(serial):
                stats.histories += 1
                if serial.stuck:
                    stats.stuck_histories += 1
            if control is not None:
                reason = control.halt_reason()
                if reason is not None:
                    stats.stop_reason = reason
                    break
            if on_execution is not None:
                on_execution(observations, stats, strategy)
        if stats.stop_reason is not None or strategy.more():
            stats.complete = False
        return observations, stats

    def explore_serial(
        self,
        test: FiniteTest,
        strategy: SchedulingStrategy,
        max_executions: int | None = None,
    ) -> Iterator[ExecutionOutcome]:
        """Phase 1's enumeration: the serial executions of *test*."""
        return self._serial.explore(
            lambda: self._programs(test),
            strategy,
            serial=True,
            max_executions=max_executions,
        )

    def explore_concurrent(
        self,
        test: FiniteTest,
        strategy: SchedulingStrategy,
        max_executions: int | None = None,
    ) -> Iterator[tuple[History, ExecutionOutcome]]:
        """Phase 2: enumerate concurrent executions under *strategy*."""
        for outcome in self.scheduler.explore(
            lambda: self._bodies(test),
            strategy,
            serial=False,
            max_executions=max_executions,
        ):
            history = self.history_from_outcome(outcome, test)
            history.key = self._events(test).history_key(history)
            yield history, outcome
