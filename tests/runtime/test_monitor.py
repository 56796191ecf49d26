"""Monitor (Enter/Wait/Pulse) semantics."""

from __future__ import annotations

from repro.runtime import DFSStrategy, SchedulerError
from repro.runtime.monitor import Monitor


class TestLocking:
    def test_enter_exit(self, scheduler):
        states = []

        def body():
            monitor = Monitor(scheduler)
            with monitor:
                states.append(monitor.held)
            states.append(monitor.held)

        scheduler.execute([body], DFSStrategy())
        assert states == [True, False]

    def test_mutual_exclusion(self, scheduler, runtime):
        def factory():
            monitor = Monitor(scheduler)
            inside = runtime.plain(0, "inside")
            overlaps = runtime.plain(0, "overlaps")

            def body():
                with monitor:
                    if inside.get():
                        overlaps.set(overlaps.get() + 1)
                    inside.set(1)
                    runtime.yield_point()
                    inside.set(0)

            factory.overlaps = overlaps
            return [body, body]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            assert factory.overlaps.get.__self__._value == 0

    def test_reenter_raises(self, scheduler):
        errors = []

        def body():
            monitor = Monitor(scheduler)
            monitor.enter()
            try:
                monitor.enter()
            except SchedulerError as exc:
                errors.append(exc)
            monitor.exit()

        scheduler.execute([body], DFSStrategy())
        assert len(errors) == 1

    def test_wait_requires_lock(self, scheduler):
        errors = []

        def body():
            monitor = Monitor(scheduler)
            try:
                monitor.wait()
            except SchedulerError as exc:
                errors.append(exc)

        scheduler.execute([body], DFSStrategy())
        assert len(errors) == 1

    def test_pulse_requires_lock(self, scheduler):
        errors = []

        def body():
            monitor = Monitor(scheduler)
            try:
                monitor.pulse()
            except SchedulerError as exc:
                errors.append(exc)

        scheduler.execute([body], DFSStrategy())
        assert len(errors) == 1


class TestWaitPulse:
    def test_wait_then_pulse_wakes(self, scheduler, runtime):
        def factory():
            monitor = Monitor(scheduler)
            ready = runtime.plain(False, "ready")
            woke = []

            def waiter():
                with monitor:
                    while not ready.get():
                        monitor.wait()
                    woke.append(True)

            def pulser():
                with monitor:
                    ready.set(True)
                    monitor.pulse()

            factory.woke = woke
            return [waiter, pulser]

        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert outcome.status != "stuck"
            assert factory.woke == [True]

    def test_pulse_before_wait_is_lost(self, scheduler, runtime):
        """The defining monitor property: a pulse with nobody queued
        evaporates; a waiter arriving afterwards blocks forever."""

        def factory():
            monitor = Monitor(scheduler)
            order = []

            def pulser():
                with monitor:
                    monitor.pulse()
                order.append("pulsed")

            def waiter():
                # Deliberately wait only after the pulse happened.
                scheduler.block_until(lambda: bool(order))
                with monitor:
                    monitor.wait()

            return [pulser, waiter]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.status == "stuck"

    def test_pulse_wakes_exactly_one(self, scheduler, runtime):
        def factory():
            monitor = Monitor(scheduler)
            woke = []

            def waiter():
                with monitor:
                    monitor.wait()
                    woke.append(scheduler.current_thread())

            def pulser():
                scheduler.block_until(lambda: monitor.waiting_count() == 2)
                with monitor:
                    monitor.pulse()

            factory.woke = woke
            factory.monitor = monitor
            return [waiter, waiter, pulser]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.status == "stuck"  # one waiter remains asleep forever
        assert len(factory.woke) == 1

    def test_pulse_all_wakes_everyone(self, scheduler, runtime):
        def factory():
            monitor = Monitor(scheduler)
            woke = []

            def waiter():
                with monitor:
                    monitor.wait()
                    woke.append(scheduler.current_thread())

            def pulser():
                scheduler.block_until(lambda: monitor.waiting_count() == 2)
                with monitor:
                    monitor.pulse_all()

            factory.woke = woke
            return [waiter, waiter, pulser]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.status != "stuck"
        assert sorted(factory.woke) == [0, 1]

    def test_fifo_wakeup_order(self, scheduler, runtime):
        def factory():
            monitor = Monitor(scheduler)
            woke = []

            def make_waiter(tag):
                def waiter():
                    scheduler.block_until(lambda: monitor.waiting_count() == tag)
                    with monitor:
                        monitor.wait()
                        woke.append(tag)

                return waiter

            def pulser():
                scheduler.block_until(lambda: monitor.waiting_count() == 2)
                with monitor:
                    monitor.pulse()
                    monitor.pulse()

            factory.woke = woke
            return [make_waiter(0), make_waiter(1), pulser]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.status != "stuck"
        assert factory.woke == [0, 1]  # first queued, first woken
