"""The two-phase Check: verdicts, violations, configs, spec-relative mode."""

from __future__ import annotations

import pytest

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    SystemUnderTest,
    TestHarness,
    check,
    check_against_observations,
)
from repro.runtime import ReplayStrategy
from repro.structures.counters import BuggyCounter1, BuggyCounter2, Counter

INC = Invocation("inc")
GET = Invocation("get")
DEC = Invocation("dec")


class TestVerdicts:
    def test_correct_counter_passes(self, scheduler):
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            scheduler=scheduler,
        )
        assert result.passed
        assert not result.violations
        assert result.phase2_executions > 0

    def test_buggy_counter1_fails_with_full_violation(self, scheduler):
        result = check(
            SystemUnderTest(BuggyCounter1, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            scheduler=scheduler,
        )
        assert result.failed
        violation = result.violation
        assert violation.kind == "non-linearizable-history"
        assert violation.history is not None
        assert violation.decisions  # replayable

    def test_stop_at_first_violation_false_collects_more(self, scheduler):
        cfg = CheckConfig(stop_at_first_violation=False)
        result = check(
            SystemUnderTest(BuggyCounter1, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            cfg,
            scheduler=scheduler,
        )
        assert result.failed
        assert len(result.violations) >= 1

    def test_stuck_histories_checked_and_justified(self, scheduler):
        # A dec with only a get alongside can never be rescued: some
        # concurrent executions genuinely end stuck, and phase 2 must find
        # each of them a stuck serial witness (dec blocks serially too).
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[DEC], [GET]]),
            scheduler=scheduler,
        )
        assert result.passed
        assert result.phase1.stuck_histories >= 1
        assert result.phase2_stuck >= 1

    def test_rescued_blocking_never_ends_stuck(self, scheduler):
        # dec || inc: the inc always rescues the dec, so no concurrent
        # execution ends stuck, while phase 1 still records the stuck
        # serial history of dec-first.
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[DEC], [INC]]),
            scheduler=scheduler,
        )
        assert result.passed
        assert result.phase1.stuck_histories >= 1
        assert result.phase2_stuck == 0

    def test_random_phase2_strategy(self, scheduler):
        cfg = CheckConfig(phase2_strategy="random", phase2_executions=50, seed=3)
        result = check(
            SystemUnderTest(BuggyCounter1, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            cfg,
            scheduler=scheduler,
        )
        assert result.failed

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            CheckConfig(phase2_strategy="quantum").make_phase2_strategy()


class TestCompleteness:
    """Theorem 5: a FAIL comes with concrete, replayable evidence."""

    def test_violating_history_is_reproducible(self, scheduler):
        test = FiniteTest.of([[INC, GET], [INC]])
        sut = SystemUnderTest(BuggyCounter1, "c")
        result = check(sut, test, scheduler=scheduler)
        violation = result.violation
        with TestHarness(sut, scheduler=scheduler) as harness:
            replayed = list(
                harness.explore_concurrent(
                    test, ReplayStrategy(list(violation.decisions))
                )
            )
        assert len(replayed) == 1
        history, _ = replayed[0]
        assert history.events == violation.history.events

    def test_violating_history_really_has_no_witness(self, scheduler):
        from repro.core.witness import brute_force_full_witness

        result = check(
            SystemUnderTest(BuggyCounter1, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            scheduler=scheduler,
        )
        violation = result.violation
        assert brute_force_full_witness(violation.history, result.observations) is None

    @pytest.mark.parametrize("cap", [1, 5, 11])
    def test_a_capped_phase_1_is_never_judged_against(self, scheduler, cap):
        # The correct queue has 12 serial executions here; judged against
        # any fewer, phase 2 used to FAIL it (no witness enumerated yet).
        from repro.structures import get_class

        result = check(
            SystemUnderTest(get_class("ConcurrentQueue").factory("beta"), "q"),
            FiniteTest.of([
                [Invocation("Enqueue", (1,)), Invocation("TryDequeue")],
                [Invocation("Enqueue", (2,))],
                [Invocation("TryDequeue")],
            ]),
            CheckConfig(max_serial_executions=cap),
            scheduler=scheduler,
        )
        assert (result.verdict, result.exhausted_reason) == ("EXHAUSTED", "executions")
        assert result.phase1.executions == cap and not result.phase1.complete
        assert result.phase2_executions == 0 and not result.phase2_complete

    def test_a_cap_the_enumeration_fits_in_is_no_cap(self, scheduler):
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            CheckConfig(max_serial_executions=3),
            scheduler=scheduler,
        )
        assert result.passed and result.phase1.complete
        assert result.phase1.executions == 3


class TestSpecRelativeChecking:
    """Section 2.2.2: Fig. 4's counter vs the intended Fig. 3 spec."""

    def test_buggy_counter2_passes_automatic_check(self, scheduler):
        # Its blocking is serially reproducible, so a deterministic spec
        # exists ("get poisons the lock") and the automatic check passes.
        result = check(
            SystemUnderTest(BuggyCounter2, "c"),
            FiniteTest.of([[INC, GET], [INC]]),
            scheduler=scheduler,
        )
        assert result.passed

    def test_buggy_counter2_fails_against_intended_spec(self, scheduler):
        test = FiniteTest.of([[INC, GET], [INC]])
        with TestHarness(SystemUnderTest(Counter, "ref"), scheduler=scheduler) as h:
            spec, _ = h.run_serial(test)
        with TestHarness(SystemUnderTest(BuggyCounter2, "c"), scheduler=scheduler) as h:
            result = check_against_observations(h, test, spec)
        assert result.failed
        assert result.violation.kind == "non-linearizable-blocking"
        assert result.violation.pending_op is not None

    def test_correct_counter_passes_against_own_spec(self, scheduler):
        test = FiniteTest.of([[INC, GET], [INC]])
        with TestHarness(SystemUnderTest(Counter, "ref"), scheduler=scheduler) as h:
            spec, _ = h.run_serial(test)
            result = check_against_observations(h, test, spec)
        assert result.passed


class TestStatistics:
    def test_phase_counts_add_up(self, scheduler):
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[INC], [GET]]),
            scheduler=scheduler,
        )
        assert result.phase2_full + result.phase2_stuck == result.phase2_executions
        assert result.phase1.executions >= result.phase1.histories
        assert result.phase1_seconds >= 0
        assert result.phase2_seconds >= 0

    def test_caps_limit_executions(self, scheduler):
        cfg = CheckConfig(max_concurrent_executions=3)
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[INC, INC], [INC, INC]]),
            cfg,
            scheduler=scheduler,
        )
        assert result.phase2_executions <= 3
