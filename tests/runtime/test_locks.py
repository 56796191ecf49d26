"""Instrumented lock semantics: mutual exclusion, timed acquire, waits."""

from __future__ import annotations

from repro.runtime import DFSStrategy, SchedulerError


class TestMutualExclusion:
    def test_critical_sections_never_overlap(self, scheduler, runtime):
        def factory():
            lock = runtime.lock()
            depth = runtime.plain(0)
            max_depth = runtime.plain(0)

            def body():
                with lock:
                    d = depth.get() + 1
                    depth.set(d)
                    if d > max_depth.get():
                        max_depth.set(d)
                    runtime.yield_point()
                    depth.set(depth.get() - 1)

            factory.max_depth = max_depth
            return [body, body]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            assert factory.max_depth.get.__self__._value == 1

    def test_reacquire_raises(self, scheduler, runtime):
        errors = []

        def body():
            lock = runtime.lock("l")
            lock.acquire()
            try:
                lock.acquire()
            except SchedulerError as exc:
                errors.append(exc)
            lock.release()

        scheduler.execute([body], DFSStrategy())
        assert len(errors) == 1

    def test_release_by_non_owner_raises(self, scheduler, runtime):
        errors = []

        def factory():
            lock = runtime.lock("l")

            def owner():
                lock.acquire()
                runtime.block_until(lambda: len(errors) == 1)
                lock.release()

            def thief():
                runtime.block_until(lambda: lock.held)
                try:
                    lock.release()
                except SchedulerError as exc:
                    errors.append(exc)

            return [owner, thief]

        scheduler.execute(factory(), DFSStrategy())
        assert len(errors) == 1

    def test_holder_reported(self, scheduler, runtime):
        holders = []

        def body():
            lock = runtime.lock()
            holders.append(lock.holder())
            lock.acquire()
            holders.append(lock.holder())
            lock.release()
            holders.append(lock.holder())

        scheduler.execute([body], DFSStrategy())
        assert holders == [None, 0, None]


class TestTryAcquire:
    def test_try_acquire_free_lock(self, scheduler, runtime):
        results = []

        def body():
            lock = runtime.lock()
            results.append(lock.try_acquire())
            lock.release()

        scheduler.execute([body], DFSStrategy())
        assert results == [True]

    def test_try_acquire_busy_lock_fails(self, scheduler, runtime):
        results = []

        def factory():
            lock = runtime.lock()

            def owner():
                lock.acquire()
                runtime.block_until(lambda: len(results) == 1)
                lock.release()

            def prober():
                runtime.block_until(lambda: lock.held)
                results.append(lock.try_acquire())

            return [owner, prober]

        scheduler.execute(factory(), DFSStrategy())
        assert results == [False]


class TestTimedAcquire:
    def test_uncontended_timed_acquire_always_succeeds(self, scheduler, runtime):
        results = set()

        def factory():
            lock = runtime.lock()

            def body():
                results.add(lock.acquire_timed())
                lock.release()

            return [body]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
        assert results == {True}

    def test_contended_timed_acquire_explores_both_outcomes(self, scheduler, runtime):
        results = set()

        def factory():
            lock = runtime.lock()

            def owner():
                lock.acquire()
                runtime.yield_point()
                lock.release()

            def prober():
                got = lock.acquire_timed()
                results.add(got)
                if got:
                    lock.release()

            return [owner, prober]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
        assert results == {True, False}


class TestWaitFor:
    def test_wait_for_condition(self, scheduler, runtime):
        order = []

        def factory():
            order.clear()
            lock = runtime.lock()
            ready = runtime.volatile(False)

            def consumer():
                lock.acquire()
                lock.wait_for(lambda: ready.peek())
                order.append("consumed")
                lock.release()

            def producer():
                lock.acquire()
                ready.set(True)
                order.append("produced")
                lock.release()

            return [consumer, producer]

        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert outcome.status != "stuck"
            assert order[-1] == "consumed"

    def test_wait_for_requires_lock_held(self, scheduler, runtime):
        errors = []

        def body():
            lock = runtime.lock()
            try:
                lock.wait_for(lambda: True)
            except SchedulerError as exc:
                errors.append(exc)

        scheduler.execute([body], DFSStrategy())
        assert len(errors) == 1

    def test_context_manager(self, scheduler, runtime):
        states = []

        def body():
            lock = runtime.lock()
            with lock:
                states.append(lock.held)
            states.append(lock.held)

        scheduler.execute([body], DFSStrategy())
        assert states == [True, False]
