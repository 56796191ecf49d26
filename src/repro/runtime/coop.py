"""The zero-thread cooperative engine (generator trampoline).

The scheduling semantics live in :mod:`repro.runtime.core`;
:class:`CoopScheduler` is the mechanism that runs them without any OS
threads in the common path.  Each logical thread is a *generator* produced
by the coop compiler (:mod:`repro.runtime.coopc`); instrumented operations
yield small *effect tuples*, the engine hands each one to the core and
resumes whichever task the core answers with ``send()``.  A schedule step
is therefore one generator resumption instead of two lock handoffs
between OS threads, which is where the engine's throughput advantage comes
from (see ``docs/PERFORMANCE.md``).

Both engines drive the same interpreter, so they enumerate the *identical*
ordered decision tree and a decision prefix found by one replays on the
other; the differential suite in
``tests/properties/test_engine_equivalence.py`` pins this down.

What still needs the baton engine: code that blocks in C (``time.sleep``,
real I/O) cannot be interrupted from its own thread, so the coop
watchdog — which injects :class:`ExecutionAbort` into the single engine
thread — only catches divergence that executes Python bytecode (infinite
Python loops).  Preemptive teardown of a wedged C call requires the
baton engine's separate controller thread.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.runtime import coopc
from repro.runtime.core import (
    ExecutionOutcome,
    SchedulingStrategy,
    Task,
    Trampoline,
)
from repro.runtime.errors import ExecutionAbort, SchedulerError
from repro.runtime.watchdog import WatchdogConfig, interrupt_thread

__all__ = ["CoopScheduler"]


class CoopScheduler(Trampoline):
    """Drop-in scheduler running logical threads as generators.

    The trampoline itself (:class:`~repro.runtime.core.Trampoline`) is
    shared with the serial driver; teardown is synchronous.
    """

    engine = "coop"

    def __init__(
        self,
        max_steps: int = 20_000,
        watchdog: WatchdogConfig | float | None = None,
    ) -> None:
        super().__init__(max_steps, watchdog)
        self._completed: ExecutionOutcome | None = None
        # Watchdog machinery (started lazily; one daemon thread total —
        # it polices stalls, it does not participate in scheduling).
        self._engine_thread: threading.Thread | None = None
        self._wd_thread: threading.Thread | None = None
        self._wd_stop = threading.Event()
        self._wd_lock = threading.Lock()
        self._wd_armed = False

    def execute(
        self,
        bodies: Sequence[Callable[[], None]],
        strategy: SchedulingStrategy,
        serial: bool = False,
    ) -> ExecutionOutcome:
        """Run one execution of *bodies* under *strategy*'s decisions."""
        try:
            return super().execute(bodies, strategy, serial)
        except ExecutionAbort:
            # A watchdog injection raced the very end of a completed
            # execution; its outcome is intact, return it.
            if self._completed is not None:
                return self._completed
            raise
        finally:
            self._completed = None

    def _execute(self, bodies, strategy, serial) -> ExecutionOutcome:
        self._completed = super()._execute(bodies, strategy, serial)
        return self._completed

    def shutdown(self) -> None:
        """Stop the watchdog thread (there are no workers to terminate)."""
        self._wd_stop.set()
        if self._wd_thread is not None:
            self._wd_thread.join(timeout=5)
            self._wd_thread = None

    # ------------------------------------------------------------------
    # Controlled-thread API.  The five suspending operations are *not*
    # callable directly: cooperative (recompiled) code reaches them as
    # yielded effects via the trampoline.  A direct call means the
    # calling module was never compiled — fail with a diagnosis instead
    # of deadlocking.
    # ------------------------------------------------------------------

    def schedule_point(self, boundary: bool = False) -> None:
        self._uncooperative("schedule_point")

    def block_until(
        self, predicate: Callable[[], bool], harness: bool = False
    ) -> None:
        self._uncooperative("block_until")

    def choose(self, n: int) -> int:
        self._uncooperative("choose")

    def yield_point(self) -> None:
        self._uncooperative("yield_point")

    def spin_wait(self) -> None:
        self._uncooperative("spin_wait")

    def _uncooperative(self, name: str) -> None:
        raise SchedulerError(
            f"{name}() reached the coop engine as a direct call: the "
            "calling code was not compiled cooperatively.  Register its "
            "module with repro.runtime.coopc.register_module(__name__) "
            "or run this subject under the baton engine (--engine baton)."
        )

    # ------------------------------------------------------------------
    # Internals: the trampoline
    # ------------------------------------------------------------------

    def _spawn(self, bodies: list[Callable[[], None]]) -> list[Task]:
        return [
            Task(tid, coopc.coopify_body(body))
            for tid, body in enumerate(bodies)
        ]

    def _drive(self, first: Task) -> None:
        if self.watchdog is not None:
            self._arm_watchdog()
        try:
            try:
                task = first
                while task is not None:
                    task = self._advance(task)
            except ExecutionAbort:
                # Either the core marked the execution stuck, or this is a
                # watchdog injection (into SUT frames or engine code): the
                # running task is wedged, the execution diverged.
                if self._current_outcome().status == "complete":
                    self._mark_divergent()
            finally:
                # Also on a no-body-running error on its way out of
                # execute(): it must not leave suspended generators behind.
                self._teardown_tasks(self._threads, self._running)
        finally:
            if self.watchdog is not None:
                self._disarm_watchdog()

    # ------------------------------------------------------------------
    # Watchdog: one daemon thread polling progress ticks; on a stall it
    # injects ExecutionAbort into the engine thread (which is inside
    # ``gen.send`` executing wedged SUT bytecode).
    # ------------------------------------------------------------------

    def _arm_watchdog(self) -> None:
        if self._wd_thread is None:
            self._wd_stop.clear()
            self._wd_thread = threading.Thread(
                target=self._watchdog_loop,
                name="lineup-coop-watchdog",
                daemon=True,
            )
            self._wd_thread.start()
        with self._wd_lock:
            self._engine_thread = threading.current_thread()
            self._stall_ticks = None
            self._wd_armed = True

    def _disarm_watchdog(self) -> None:
        with self._wd_lock:
            self._wd_armed = False

    def _watchdog_loop(self) -> None:
        cfg = self.watchdog
        assert cfg is not None
        while not self._wd_stop.wait(cfg.poll_interval):
            with self._wd_lock:
                if self._wd_armed and self._stalled():
                    # Flag the teardown first so any effect the engine
                    # still processes aborts, then interrupt the engine
                    # thread itself.  Disarm so we fire exactly once.
                    self._tearing_down = True
                    self._wd_armed = False
                    if self._engine_thread is not None:
                        interrupt_thread(self._engine_thread)


coopc.register_effects(CoopScheduler)
