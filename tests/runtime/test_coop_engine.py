"""Coop-engine edge cases: uncooperative calls, divergence, stuck teardown.

The generic scheduler contract is exercised for both engines by the
parametrized ``scheduler`` fixture (see ``conftest.py``); this module
covers the failure modes unique to the zero-thread engine — a generator
that never yields must surface as ``divergent`` rather than hanging the
process, a direct (uncompiled) call into a suspending primitive must
fail loudly, and the engine must stay usable after every kind of abort.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.runtime import (
    CoopScheduler,
    DFSStrategy,
    ReplayStrategy,
    Runtime,
    Scheduler,
    SchedulerError,
    make_scheduler,
)
from repro.runtime.watchdog import WatchdogConfig


@pytest.fixture()
def coop():
    sched = CoopScheduler()
    yield sched
    sched.shutdown()


@pytest.fixture()
def watched_coop():
    sched = CoopScheduler(
        watchdog=WatchdogConfig(
            time_limit=0.4, poll_interval=0.02, abandon_timeout=0.5
        )
    )
    yield sched
    sched.shutdown()


class TestFactory:
    def test_engine_names(self):
        assert Scheduler.engine == "baton"
        assert CoopScheduler.engine == "coop"

    def test_make_scheduler_selects_engine(self):
        for name, cls in (("baton", Scheduler), ("coop", CoopScheduler)):
            sched = make_scheduler(name, max_steps=123)
            try:
                assert type(sched) is cls
                assert sched.max_steps == 123
            finally:
                sched.shutdown()

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_scheduler("fibers")


class TestUncooperativeCalls:
    """Direct calls into suspending primitives fail with a diagnosis."""

    def test_direct_schedule_point_raises(self, coop):
        with pytest.raises(SchedulerError, match="not compiled cooperatively"):
            coop.schedule_point()

    def test_direct_block_until_raises(self, coop):
        with pytest.raises(SchedulerError, match="not compiled cooperatively"):
            coop.block_until(lambda: True)

    def test_direct_choose_raises(self, coop):
        with pytest.raises(SchedulerError, match="not compiled cooperatively"):
            coop.choose(2)


STALE_MODULE = '''\
from repro.runtime import coopc

coopc.register_module(__name__)


def bump(cell):
    cell.set(cell.get() + 1)


def drain(cell):
    cell.set(cell.get() - 1)
'''


class TestStaleSource:
    """The compiler reads a function's source at its code's first line;
    a file edited after import must be an error that says so, never a
    silent direct call (which later dies as "reached the coop engine as
    a direct call")."""

    def test_a_file_shifted_after_import_is_a_named_error(
        self, tmp_path, monkeypatch
    ):
        import importlib

        from repro.runtime import coopc

        name = "coop_stale_source_subject"
        path = tmp_path / f"{name}.py"
        path.write_text(STALE_MODULE)
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, name, raising=False)
        module = importlib.import_module(name)
        try:
            # Compiled from the file as imported: a generator.
            assert coopc._compute_entry(module.bump)[0] == "gen"
            # Six lines up front: drain's first line now opens bump's block.
            path.write_text("\n" * 6 + STALE_MODULE)
            with pytest.raises(
                coopc.StaleSourceError, match=r"drain\(\) changed since"
            ):
                coopc._compute_entry(module.drain)
        finally:
            sys.modules.pop(name, None)


class TestDivergence:
    def test_never_yielding_body_is_divergent_not_hung(self, watched_coop):
        """A body that never reaches a scheduling point must not hang."""

        def spin():
            x = 0
            while True:
                x += 1

        t0 = time.monotonic()
        outcome = watched_coop.execute([spin], DFSStrategy())
        elapsed = time.monotonic() - t0
        assert outcome.status == "divergent"
        assert outcome.divergent
        assert elapsed < 5.0

    def test_divergent_records_pending_threads(self, watched_coop):
        def spin():
            while True:
                pass

        outcome = watched_coop.execute([lambda: None, spin], DFSStrategy())
        assert outcome.status == "divergent"
        assert 1 in outcome.pending_threads

    def test_engine_reusable_after_divergence(self, watched_coop):
        def spin():
            while True:
                pass

        outcome = watched_coop.execute([spin], DFSStrategy())
        assert outcome.status == "divergent"
        ran = []
        after = watched_coop.execute([lambda: ran.append(1)], DFSStrategy())
        assert after.status == "complete"
        assert ran == [1]


class TestStuckExecutions:
    def test_mutual_block_is_deadlock(self, coop):
        flags = [False, False]

        def blocked_on(other):
            def body():
                coop.block_until(lambda: flags[other])

            return body

        outcome = coop.execute(
            [blocked_on(1), blocked_on(0)], DFSStrategy()
        )
        assert outcome.status == "stuck"
        assert outcome.stuck_kind == "deadlock"
        assert set(outcome.pending_threads) == {0, 1}

    def test_step_budget_exhaustion_is_livelock(self):
        sched = CoopScheduler(max_steps=40)
        try:

            def chatty():
                for _ in range(1000):
                    sched.schedule_point()

            outcome = sched.execute([chatty], DFSStrategy())
            assert outcome.status == "stuck"
            assert outcome.stuck_kind == "livelock"
        finally:
            sched.shutdown()

    def test_engine_reusable_after_stuck(self, coop):
        def stuck_body():
            coop.block_until(lambda: False)

        outcome = coop.execute([stuck_body, lambda: None], DFSStrategy())
        assert outcome.status == "stuck"
        ran = []
        after = coop.execute([lambda: ran.append(1)], DFSStrategy())
        assert after.status == "complete"
        assert ran == [1]


def _counter_program(sched):
    """Two threads racing increments on a volatile cell."""
    runtime = Runtime(sched)

    def factory():
        cell = runtime.volatile(0, "cell")

        def body():
            cell.set(cell.get() + 1)

        return [body, body]

    return factory


def _trace(outcome):
    return tuple(
        (d.kind, d.options, d.chosen, d.running, d.free)
        for d in outcome.decisions
    )


class TestCrossEngineAgreement:
    def test_comprehension_lowering_matches_baton(self):
        """A genexpr over instrumented reads explores identically."""

        def program(sched):
            runtime = Runtime(sched)

            def factory():
                cells = [runtime.volatile(i, f"c{i}") for i in range(3)]
                out = []

                def reader():
                    out.append(sum(c.get() for c in cells))

                def writer():
                    cells[1].set(10)

                return [reader, writer]

            return factory

        traces = {}
        for name in ("baton", "coop"):
            sched = make_scheduler(name)
            try:
                strategy = DFSStrategy(preemption_bound=2)
                traces[name] = [
                    _trace(o) for o in sched.explore(program(sched), strategy)
                ]
            finally:
                sched.shutdown()
        assert traces["baton"] == traces["coop"]
        assert len(traces["coop"]) > 1

    def test_replay_prefix_across_engines(self, coop):
        """A decision trace recorded on one engine replays on the other."""
        baton = Scheduler()
        try:
            recorded = [
                outcome
                for outcome in baton.explore(
                    _counter_program(baton), DFSStrategy(preemption_bound=2)
                )
            ]
        finally:
            baton.shutdown()
        assert len(recorded) > 1
        for original in (recorded[0], recorded[-1]):
            replayed = coop.execute(
                _counter_program(coop)(),
                ReplayStrategy(list(original.decisions)),
            )
            assert _trace(replayed) == _trace(original)
            assert replayed.status == original.status
