"""The online WGL engine: retirement, bounded memory, open-history cases."""

from __future__ import annotations

import pytest

from repro.core.events import Invocation, Response
from repro.monitor import get_model
from repro.monitor.incremental import IncrementalChecker, StreamStateError
from repro.monitor.wgl import MonitorLimitError


def ok(value=None) -> Response:
    return Response("ok", value)


class TestVerdicts:
    def test_sequential_prefix_passes_and_retires(self):
        checker = IncrementalChecker(get_model("counter"))
        for i in range(5):
            checker.on_call(0, i, Invocation("inc", ()))
            assert checker.on_return(0, i, ok(None))
        assert checker.ok
        assert checker.retired == 5
        assert checker.frontier_size == 0

    def test_impossible_return_fails_immediately(self):
        checker = IncrementalChecker(get_model("register"))
        checker.on_call(0, 0, Invocation("write", (1,)))
        assert checker.on_return(0, 0, ok(None))
        checker.on_call(1, 0, Invocation("read", ()))
        assert not checker.on_return(1, 0, ok(42))
        assert not checker.ok
        counterexample = checker.failed
        assert counterexample is not None
        assert counterexample.invocation.method == "read"
        assert "read" in counterexample.describe()
        # A failed stream accepts no further events: FAIL is final.
        with pytest.raises(StreamStateError):
            checker.on_call(0, 1, Invocation("read", ()))

    def test_concurrent_overlap_allows_either_order(self):
        # write(1) and write(2) overlap; a read may then see either value,
        # depending on which linearization the closure keeps alive.
        for seen in (1, 2):
            checker = IncrementalChecker(get_model("register"))
            checker.on_call(0, 0, Invocation("write", (1,)))
            checker.on_call(1, 0, Invocation("write", (2,)))
            assert checker.on_return(0, 0, ok(None))
            assert checker.on_return(1, 0, ok(None))
            checker.on_call(0, 1, Invocation("read", ()))
            assert checker.on_return(0, 1, ok(seen)), seen

    def test_result_snapshot(self):
        checker = IncrementalChecker(get_model("counter"))
        checker.on_call(0, 0, Invocation("inc", ()))
        checker.on_return(0, 0, ok(None))
        result = checker.result()
        assert result.ok and result.engine == "incremental"
        assert result.retired == 1 and result.frontier == 0


class TestBoundedMemory:
    def test_frontier_bounded_by_concurrency_window(self):
        """A long trace with window 2 keeps ≤ 2 open ops and O(1) configs."""
        checker = IncrementalChecker(get_model("counter"))
        for i in range(500):
            checker.on_call(0, i, Invocation("inc", ()))
            checker.on_call(1, i, Invocation("inc", ()))
            assert checker.on_return(0, i, ok(None))
            assert checker.on_return(1, i, ok(None))
        assert checker.retired == 1000
        assert checker.max_frontier == 2
        # Live configurations never scale with trace length.
        assert checker.max_live_configs <= 4

    def test_configuration_cap_raises_exhausted(self):
        checker = IncrementalChecker(get_model("counter"), max_configurations=3)
        for i in range(4):
            checker.on_call(i, 0, Invocation("inc", ()))
        with pytest.raises(MonitorLimitError):
            for i in range(4):
                checker.on_return(i, 0, ok(None))


    def test_cap_is_per_return_not_per_lifetime(self):
        """A healthy stream never exhausts: the cap bounds one return's
        closure, and ``configurations`` stays the lifetime statistic."""
        checker = IncrementalChecker(
            get_model("register"), max_configurations=1000
        )
        for i in range(5000):
            checker.on_call(0, i, Invocation("write", (i,)))
            assert checker.on_return(0, i, ok(None))
        assert checker.retired == 5000
        assert checker.configurations == 5000  # well past the cap
        assert checker.live_configs == 1

    def test_cap_trips_at_the_return_whose_closure_exceeds_it(self):
        checker = IncrementalChecker(get_model("queue"), max_configurations=20)
        for i in range(50):
            checker.on_call(0, i, Invocation("Enqueue", (i,)))
            assert checker.on_return(0, i, ok(None))
        before = checker.configurations
        assert before == 50
        # Five overlapping enqueues: the first return's closure visits
        # every ordered subset of the other four, 65 configurations.
        for thread in range(1, 6):
            checker.on_call(thread, 0, Invocation("Enqueue", (100 + thread,)))
        with pytest.raises(MonitorLimitError):
            checker.on_return(1, 0, ok(None))
        assert checker.configurations == before + 20 + 1
        assert checker.retired == 50


class TestIndeterminate:
    def test_indeterminate_may_take_effect_later(self):
        checker = IncrementalChecker(get_model("register"))
        checker.on_call(0, 0, Invocation("write", (5,)))
        checker.on_indeterminate(0, 0)
        checker.on_call(1, 0, Invocation("read", ()))
        assert checker.on_return(1, 0, ok(None))  # not yet effective
        checker.on_call(1, 1, Invocation("read", ()))
        assert checker.on_return(1, 1, ok(5))  # took effect in between
        assert checker.ok

    def test_effect_cannot_be_undone(self):
        checker = IncrementalChecker(get_model("register"))
        checker.on_call(0, 0, Invocation("write", (5,)))
        checker.on_indeterminate(0, 0)
        checker.on_call(1, 0, Invocation("read", ()))
        assert checker.on_return(1, 0, ok(5))  # effective now...
        checker.on_call(1, 1, Invocation("read", ()))
        assert not checker.on_return(1, 1, ok(None))  # ...cannot un-happen

    def test_indeterminate_op_never_forces_linearization(self):
        checker = IncrementalChecker(get_model("counter"))
        checker.on_call(0, 0, Invocation("inc", ()))
        checker.on_indeterminate(0, 0)
        checker.on_call(1, 0, Invocation("get", ()))
        assert checker.on_return(1, 0, ok(0))
        checker.on_call(1, 1, Invocation("get", ()))
        assert checker.on_return(1, 1, ok(0))
        assert checker.ok  # dropping the increment forever is allowed


class TestWellFormedness:
    def test_duplicate_call_rejected(self):
        checker = IncrementalChecker(get_model("counter"))
        checker.on_call(0, 0, Invocation("get", ()))
        with pytest.raises(StreamStateError):
            checker.on_call(0, 0, Invocation("get", ()))

    def test_return_without_call_rejected(self):
        checker = IncrementalChecker(get_model("counter"))
        with pytest.raises(StreamStateError):
            checker.on_return(0, 0, ok(0))

    def test_indeterminate_without_call_rejected(self):
        checker = IncrementalChecker(get_model("counter"))
        with pytest.raises(StreamStateError):
            checker.on_indeterminate(0, 0)
