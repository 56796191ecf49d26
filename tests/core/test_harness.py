"""Test harness: event recording, init/final, exceptions as responses."""

from __future__ import annotations

import pytest

from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.core.harness import HarnessError, OpMark
from repro.runtime import DFSStrategy
from repro.structures.counters import Counter


def counter_sut():
    return SystemUnderTest(Counter, "counter")


class Raiser:
    """Sequential object whose ops raise on demand."""

    def __init__(self, rt):
        self._rt = rt
        self._cell = rt.volatile(0)

    def boom(self):
        raise ValueError("boom")

    def ok(self):
        return self._cell.get()

    @property
    def prop(self):
        return "property-value"


class TestEventRecording:
    def test_serial_run_records_alternating_events(self, scheduler):
        test = FiniteTest.of([[Invocation("inc"), Invocation("get")]])
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            observations, stats = harness.run_serial(test)
        assert stats.executions == 1
        assert len(observations.full) == 1
        history = observations.full[0]
        assert [str(s.invocation) for s in history.steps] == ["inc()", "get()"]
        assert history.steps[1].response.value == 1

    def test_concurrent_histories_have_all_ops(self, scheduler):
        test = FiniteTest.of([[Invocation("inc")], [Invocation("inc")]])
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            for history, outcome in harness.explore_concurrent(test, DFSStrategy()):
                assert len(history.operations) == 2
                assert history.ill_formed_thread is None

    def test_op_marks_bracket_operations(self, scheduler):
        test = FiniteTest.of([[Invocation("inc")]])
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            _, outcome = next(iter(harness.explore_concurrent(test, DFSStrategy())))
        marks = [a for a in outcome.accesses if isinstance(a, OpMark)]
        assert [m.kind for m in marks] == ["begin", "end"]


class TestInitFinal:
    def test_init_runs_before_all_columns(self, scheduler):
        test = FiniteTest.of(
            [[Invocation("get")], [Invocation("get")]],
            init=[Invocation("set_value", (9,))],
        )
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            observations, _ = harness.run_serial(test)
        for history in observations.full:
            assert history.steps[0].invocation == Invocation("set_value", (9,))
            for step in history.steps[1:]:
                assert step.response.value == 9

    def test_final_runs_after_all_columns(self, scheduler):
        test = FiniteTest.of(
            [[Invocation("inc")], [Invocation("inc")]],
            final=[Invocation("get")],
        )
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            observations, _ = harness.run_serial(test)
        for history in observations.full:
            assert history.steps[-1].invocation == Invocation("get")
            assert history.steps[-1].response.value == 2


class TestDispatch:
    def test_exception_becomes_response(self, scheduler):
        test = FiniteTest.of([[Invocation("boom"), Invocation("ok")]])
        with TestHarness(SystemUnderTest(Raiser, "raiser"), scheduler=scheduler) as h:
            observations, _ = h.run_serial(test)
        steps = observations.full[0].steps
        assert steps[0].response.kind == "raised"
        assert steps[0].response.value == "ValueError"
        assert steps[1].response.kind == "ok"

    def test_plain_attribute_readable(self, scheduler):
        test = FiniteTest.of([[Invocation("prop")]])
        with TestHarness(SystemUnderTest(Raiser, "raiser"), scheduler=scheduler) as h:
            observations, _ = h.run_serial(test)
        assert observations.full[0].steps[0].response.value == "property-value"

    def test_unknown_method_raises_harness_error(self, scheduler):
        test = FiniteTest.of([[Invocation("no_such_method")]])
        with TestHarness(SystemUnderTest(Raiser, "raiser"), scheduler=scheduler) as h:
            with pytest.raises(HarnessError):
                h.run_serial(test)

    def test_attribute_with_args_raises_harness_error(self, scheduler):
        test = FiniteTest.of([[Invocation("prop", (1,))]])
        with TestHarness(SystemUnderTest(Raiser, "raiser"), scheduler=scheduler) as h:
            with pytest.raises(HarnessError):
                h.run_serial(test)


class TestSerialEnumeration:
    def test_2x2_produces_six_executions(self, scheduler):
        test = FiniteTest.of(
            [[Invocation("inc"), Invocation("inc")],
             [Invocation("inc"), Invocation("inc")]]
        )
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            _, stats = harness.run_serial(test)
        assert stats.executions == 6

    def test_3x3_produces_1680_executions(self, scheduler):
        test = FiniteTest.of([[Invocation("inc")] * 3] * 3)
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            _, stats = harness.run_serial(test)
        assert stats.executions == 1680  # the paper's combinatorial count

    def test_stuck_serial_histories_recorded(self, scheduler):
        # dec blocks on a zero counter.
        test = FiniteTest.of([[Invocation("dec")], [Invocation("inc")]])
        with TestHarness(counter_sut(), scheduler=scheduler) as harness:
            observations, stats = harness.run_serial(test)
        assert stats.stuck_histories >= 1
        assert observations.stuck
        assert observations.stuck[0].steps[-1].response is None
