"""Happens-before race detection over explored executions."""

from __future__ import annotations

from repro.analysis import RaceDetector, detect_races
from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.runtime import DFSStrategy


def races_over_exploration(scheduler, factory, test, cap=600):
    names = set()
    with TestHarness(SystemUnderTest(factory, "sut"), scheduler=scheduler) as h:
        for _history, outcome in h.explore_concurrent(
            test, DFSStrategy(preemption_bound=2), max_executions=cap
        ):
            for race in detect_races(outcome.accesses):
                names.add(race.name)
    return names


class TestDirectScenarios:
    def test_unsynchronized_plain_writes_race(self, scheduler, runtime):
        def factory():
            cell = runtime.plain(0, "shared")
            return [lambda: cell.set(1), lambda: cell.set(2)]

        races = []
        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            races.extend(detect_races(outcome.accesses))
        assert races
        assert all(r.name == "shared" for r in races)

    def test_lock_protected_accesses_do_not_race(self, scheduler, runtime):
        def factory():
            lock = runtime.lock("l")
            cell = runtime.plain(0, "guarded")

            def body():
                with lock:
                    cell.set(cell.get() + 1)

            return [body, body]

        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert detect_races(outcome.accesses) == []

    def test_volatile_publication_orders_plain_access(self, scheduler, runtime):
        # writer: plain write, then volatile flag; reader: flag, then plain
        # read — the volatile edge orders the plain accesses (no race).
        def factory():
            flag = runtime.volatile(False, "flag")
            data = runtime.plain(0, "data")

            def writer():
                data.set(42)
                flag.set(True)

            def reader():
                if flag.get():
                    data.get()

            return [writer, reader]

        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert detect_races(outcome.accesses) == []

    def test_reversed_publication_races(self, scheduler, runtime):
        # flag set before data write: the read can be concurrent.
        def factory():
            flag = runtime.volatile(False, "flag")
            data = runtime.plain(0, "data")

            def writer():
                flag.set(True)
                data.set(42)

            def reader():
                if flag.get():
                    data.get()

            return [writer, reader]

        raced = False
        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            if detect_races(outcome.accesses):
                raced = True
        assert raced

    def test_read_read_never_races(self, scheduler, runtime):
        def factory():
            cell = runtime.plain(7, "ro")
            return [lambda: cell.get(), lambda: cell.get()]

        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            assert detect_races(outcome.accesses) == []

    def test_same_thread_accesses_never_race(self, scheduler, runtime):
        def body_factory():
            cell = runtime.plain(0, "mine")

            def body():
                cell.set(1)
                cell.get()
                cell.set(2)

            return [body]

        outcome = scheduler.execute(body_factory(), DFSStrategy())
        assert detect_races(outcome.accesses) == []


class TestStructureFindings:
    """Section 5.6: benign races in the shipped classes, real in the pre."""

    def test_lazy_beta_is_race_free(self, scheduler):
        from repro.structures import Lazy

        test = FiniteTest.of([[Invocation("Value")], [Invocation("Value")]])
        races = races_over_exploration(
            scheduler, lambda rt: Lazy(rt, "beta"), test
        )
        assert races == set()

    def test_lazy_pre_races_on_value(self, scheduler):
        from repro.structures import Lazy

        test = FiniteTest.of([[Invocation("Value")], [Invocation("Value")]])
        races = races_over_exploration(
            scheduler, lambda rt: Lazy(rt, "pre"), test
        )
        assert "lazy.value" in races

    def test_linked_list_benign_count_race(self, scheduler):
        from repro.structures import ConcurrentLinkedList

        test = FiniteTest.of(
            [[Invocation("AddFirst", (1,))], [Invocation("Count")]]
        )
        races = races_over_exploration(
            scheduler, lambda rt: ConcurrentLinkedList(rt, "beta"), test
        )
        assert races == {"cll.items"}

    def test_detector_object_accumulates(self, scheduler, runtime):
        def factory():
            cell = runtime.plain(0, "x")
            return [lambda: cell.set(1), lambda: cell.set(2)]

        detector = RaceDetector()
        strategy = DFSStrategy()
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            detector.feed_all(outcome.accesses)
        assert {race.name for race in detector.races} == {"x"}
