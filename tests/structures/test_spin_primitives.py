"""Spin-based primitives and the fair scheduler (paper Section 4)."""

from __future__ import annotations

from tests.conftest import inv, run_sequential

from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness, check
from repro.core.checker import check_against_observations
from repro.runtime import DFSStrategy, Runtime, Scheduler
from repro.structures.counters import Counter
from tests.structures.spin_primitives import SpinLock, SpinningCounter, TicketLock


class TestSpinWaitPrimitive:
    def test_spin_event_exploration_terminates(self, scheduler, runtime):
        def factory():
            flag = runtime.volatile(False, "flag")

            def waiter():
                while not flag.get():
                    scheduler.spin_wait()

            def setter():
                flag.set(True)

            return [waiter, setter]

        strategy = DFSStrategy()
        count = 0
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert outcome.status != "stuck"
            count += 1
        assert count < 100  # fairness keeps the spin space finite

    def test_lone_spinner_is_livelock(self, scheduler, runtime):
        def factory():
            flag = runtime.volatile(False, "flag")

            def waiter():
                while not flag.get():
                    scheduler.spin_wait()

            return [waiter]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.status == "stuck"
        assert outcome.stuck_kind == "livelock"
        assert outcome.steps < 100  # detected, not budget-exhausted

    def test_mutual_spinners_hit_budget(self, runtime):
        small = Scheduler(max_steps=200)
        rt = Runtime(small)

        def spin():
            while True:
                small.spin_wait()

        outcome = small.execute([spin, spin], DFSStrategy())
        assert outcome.status == "stuck"
        small.shutdown()

    def test_unfair_spin_explodes_fair_does_not(self, runtime):
        """Quantifies the fairness claim: the same spin loop explored
        with plain yield points degenerates into livelocked executions."""
        small = Scheduler(max_steps=300)
        rt = Runtime(small)

        def factory(fair):
            flag = rt.volatile(False, "flag")

            def waiter():
                while not flag.get():
                    if fair:
                        small.spin_wait()
                    else:
                        small.yield_point()

            def setter():
                flag.set(True)

            return [waiter, setter]

        fair_outcomes = []
        strategy = DFSStrategy()
        while strategy.more() and len(fair_outcomes) < 500:
            fair_outcomes.append(small.execute(factory(True), strategy))
        assert all(o.status != "stuck" for o in fair_outcomes)

        unfair_outcomes = []
        strategy = DFSStrategy()
        while strategy.more() and len(unfair_outcomes) < 500:
            unfair_outcomes.append(small.execute(factory(False), strategy))
        assert any(o.status == "stuck" for o in unfair_outcomes)
        small.shutdown()


class TestSpinLock:
    def test_mutual_exclusion_under_exploration(self, scheduler, runtime):
        def factory():
            lock = SpinLock(runtime)
            inside = runtime.plain(0, "inside")
            bad = runtime.plain(False, "bad")

            def body():
                with lock:
                    if inside.get() != 0:
                        bad.set(True)
                    inside.set(1)
                    runtime.yield_point()
                    inside.set(0)

            factory.bad = bad
            return [body, body]

        strategy = DFSStrategy(preemption_bound=2)
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert outcome.status != "stuck"
            assert factory.bad.get.__self__._value is False


class TestSpinningCounter:
    def test_sequential_semantics(self, scheduler):
        out = run_sequential(
            scheduler,
            SpinningCounter,
            [inv("inc"), inv("inc"), inv("get"), inv("dec"), inv("get")],
        )
        assert [r.value for r in out] == [None, None, 2, None, 1]

    def test_linearizable_like_lock_counter(self, scheduler):
        test = FiniteTest.of(
            [[Invocation("inc"), Invocation("get")], [Invocation("inc")]]
        )
        result = check(
            SystemUnderTest(SpinningCounter, "spin"), test, scheduler=scheduler
        )
        assert result.passed

    def test_differential_against_lock_counter_spec(self, scheduler):
        """SpinningCounter must satisfy the *lock* counter's synthesized
        spec — the two implementations are behaviourally identical."""
        test = FiniteTest.of(
            [[Invocation("inc"), Invocation("get")], [Invocation("dec")]]
        )
        with TestHarness(SystemUnderTest(Counter, "ref"), scheduler=scheduler) as h:
            spec, _ = h.run_serial(test)
        with TestHarness(
            SystemUnderTest(SpinningCounter, "spin"), scheduler=scheduler
        ) as h:
            result = check_against_observations(h, test, spec)
        assert result.passed

    def test_dec_blocks_spinning(self, scheduler):
        test = FiniteTest.of([[Invocation("dec")]])
        result = check(
            SystemUnderTest(SpinningCounter, "spin"), test, scheduler=scheduler
        )
        assert result.passed
        assert result.phase1.stuck_histories == 1


class TestTicketLock:
    def test_sequential_handout(self, scheduler):
        out = run_sequential(
            scheduler,
            TicketLock,
            [inv("AcquireRelease"), inv("AcquireRelease"), inv("CurrentTicket"),
             inv("NowServing")],
        )
        assert [r.value for r in out] == [0, 1, 2, 2]

    def test_fifo_under_contention(self, scheduler, runtime):
        def factory():
            lock = TicketLock(runtime)
            order = []

            def body():
                ticket = lock.Acquire()
                order.append(ticket)
                lock.Release()

            factory.order = order
            return [body, body, body]

        strategy = DFSStrategy(preemption_bound=2)
        executions = 0
        while strategy.more() and executions < 3000:
            outcome = scheduler.execute(factory(), strategy)
            executions += 1
            assert outcome.status != "stuck"
            assert factory.order == sorted(factory.order)  # FIFO service

    def test_linearizable(self, scheduler):
        test = FiniteTest.of(
            [[Invocation("AcquireRelease")], [Invocation("AcquireRelease")]]
        )
        result = check(
            SystemUnderTest(TicketLock, "ticket"), test, scheduler=scheduler
        )
        assert result.passed
