"""Multi-object checking (Theorem 1 reduction)."""

from __future__ import annotations

import pytest

from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.core.harness import HarnessError
from repro.core.multi import check_multi, project_object
from repro.structures.counters import BuggyCounter1, Counter
from tests.core.history_reference import to_history


def _inv(method, target, *args):
    return Invocation(method, args, target=target)


def two_counters(rt):
    return {"x": Counter(rt), "y": Counter(rt)}


def one_buggy(rt):
    return {"x": Counter(rt), "y": BuggyCounter1(rt)}


class TestProjection:
    def _history(self, scheduler):
        test = FiniteTest.of(
            [
                [_inv("inc", "x"), _inv("inc", "y")],
                [_inv("get", "x"), _inv("get", "y")],
            ]
        )
        subject = SystemUnderTest(two_counters, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            observations, _ = harness.run_serial(test, max_executions=1)
        return to_history(observations.full[0], 2)

    def test_projection_partitions_operations(self, scheduler):
        history = self._history(scheduler)
        x_part = project_object(history, "x")
        y_part = project_object(history, "y")
        assert len(x_part.operations) + len(y_part.operations) == len(
            history.operations
        )
        assert all(op.invocation.target == "x" for op in x_part.operations)
        assert all(op.invocation.target == "y" for op in y_part.operations)

    def test_projection_renumbers_indices(self, scheduler):
        history = self._history(scheduler)
        for target in ("x", "y"):
            part = project_object(history, target)
            assert part.ill_formed_thread is None
            for thread in range(part.n_threads):
                indices = [
                    op.op_index for op in part.operations if op.thread == thread
                ]
                assert indices == list(range(len(indices)))

    def test_projection_stuck_only_with_pending(self):
        from repro.core.events import Event, Response
        from repro.core.history import History

        events = [
            Event.call(0, 0, Invocation("inc", (), "x")),
            Event.ret(0, 0, Response.of(None)),
            Event.call(1, 0, Invocation("dec", (), "y")),  # pending
        ]
        history = History(events, 2, stuck=True)
        x_part = project_object(history, "x")
        y_part = project_object(history, "y")
        assert not x_part.stuck  # x has nothing pending
        assert y_part.stuck


class TestCheckMulti:
    def test_two_correct_counters_pass(self, scheduler):
        test = FiniteTest.of(
            [
                [_inv("inc", "x"), _inv("get", "y")],
                [_inv("inc", "y"), _inv("get", "x")],
            ]
        )
        subject = SystemUnderTest(two_counters, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            result = check_multi(harness, test)
        assert result.passed
        assert set(result.per_object) == {"x", "y"}

    def test_buggy_object_identified(self, scheduler):
        test = FiniteTest.of(
            [
                [_inv("inc", "y"), _inv("get", "y")],
                [_inv("inc", "y"), _inv("inc", "x")],
            ]
        )
        subject = SystemUnderTest(one_buggy, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            result = check_multi(harness, test)
        assert result.failed
        assert result.failed_object == "y"
        # The projected violating history only holds y-operations.
        assert all(
            op.invocation.target == "y"
            for op in result.violation.history.operations
        )

    def test_correct_object_untainted_by_buggy_sibling(self, scheduler):
        # Only exercise x (the correct counter); y sits idle.
        test = FiniteTest.of(
            [[_inv("inc", "x"), _inv("get", "x")], [_inv("inc", "x")]]
        )
        subject = SystemUnderTest(one_buggy, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            result = check_multi(harness, test)
        assert result.passed

    def test_cross_object_blocking_justified(self, scheduler):
        # dec on x blocks until x's count is positive: the projected stuck
        # history needs (and has) a stuck serial witness for object x.
        test = FiniteTest.of(
            [[_inv("dec", "x")], [_inv("inc", "y")]]
        )
        subject = SystemUnderTest(two_counters, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            result = check_multi(harness, test)
        assert result.passed
        assert result.phase2_stuck > 0


class TestTheOneLoop:
    TEST = FiniteTest.of(
        [
            [_inv("inc", "x"), _inv("inc", "y")],
            [_inv("get", "x"), _inv("inc", "y")],
            [_inv("get", "y")],
        ]
    )

    def _check(self, factory, cfg):
        with TestHarness(SystemUnderTest(factory, "pair")) as harness:
            return check_multi(harness, self.TEST, cfg)

    def test_config_budget_ends_exhausted_at_exactly_n_executions(self):
        from repro.core import CheckConfig
        from repro.core.budget import ExplorationBudget

        result = self._check(
            two_counters, CheckConfig(budget=ExplorationBudget(max_executions=25))
        )
        assert result.exhausted and result.exhausted_reason == "executions"
        assert not result.phase2_complete
        # The projected phase 1 always runs whole; the budget meters phase 2.
        assert result.phase1.complete and result.phase2_executions == 25

    def test_a_capped_phase_1_is_never_judged_against(self):
        from repro.core import CheckConfig

        result = self._check(two_counters, CheckConfig(max_serial_executions=3))
        assert result.exhausted and result.exhausted_reason == "executions"
        assert not result.phase1.complete and result.phase1.executions == 3
        assert result.phase2_executions == 0 and not result.phase2_complete

    def test_statistics_and_the_memo_are_those_of_a_strict_check(self):
        from repro.core import CheckConfig

        result = self._check(two_counters, CheckConfig(reduction="sleep"))
        assert result.passed and result.phase2_complete
        assert result.reduction == "sleep" and result.schedules_pruned > 0
        assert 0 < result.equivalence_classes <= result.phase2_executions
        assert 0 < result.phase2_judged < result.phase2_executions

    def test_the_failing_object_is_named_through_the_loop(self):
        from repro.core import CheckConfig

        result = self._check(one_buggy, CheckConfig())
        assert result.failed and result.failed_object == "y"
        assert result.equivalence_classes > 0 and result.phase2_judged > 0


class TestHarnessDispatch:
    def test_target_without_mapping_rejected(self, scheduler):
        test = FiniteTest.of([[_inv("inc", "x")]])
        subject = SystemUnderTest(Counter, "single")
        with TestHarness(subject, scheduler=scheduler) as harness:
            with pytest.raises(HarnessError):
                harness.run_serial(test)

    def test_mapping_without_target_rejected(self, scheduler):
        test = FiniteTest.of([[Invocation("inc")]])
        subject = SystemUnderTest(two_counters, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            with pytest.raises(HarnessError):
                harness.run_serial(test)

    def test_unknown_target_rejected(self, scheduler):
        test = FiniteTest.of([[_inv("inc", "nope")]])
        subject = SystemUnderTest(two_counters, "pair")
        with TestHarness(subject, scheduler=scheduler) as harness:
            with pytest.raises(HarnessError):
                harness.run_serial(test)
