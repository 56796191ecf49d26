"""AutoCheck, RandomCheck and failing-test minimization."""

from __future__ import annotations

import pytest

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    SystemUnderTest,
    auto_check,
    minimize_failing_test,
    random_check,
)
from repro.structures.counters import BuggyCounter1, Counter

INC = Invocation("inc")
GET = Invocation("get")


class TestAutoCheck:
    def test_finds_bug_at_small_dimension(self, scheduler):
        result = auto_check(
            SystemUnderTest(BuggyCounter1, "c"),
            [INC, GET],
            max_n=2,
            scheduler=scheduler,
        )
        assert result.verdict == "FAIL"
        assert result.tests_failed >= 1

    def test_passes_on_correct_counter(self, scheduler):
        # n=1 contributes 1 test over {inc}, n=2 contributes 2^4 over
        # {inc, get}: 17 tests in total.
        result = auto_check(
            SystemUnderTest(Counter, "c"),
            [INC, GET],
            max_n=2,
            max_tests=25,
            scheduler=scheduler,
        )
        assert result.verdict == "PASS"
        assert result.tests_run == 17

    def test_max_tests_bound(self, scheduler):
        result = auto_check(
            SystemUnderTest(Counter, "c"),
            [INC],
            max_n=2,
            max_tests=3,
            scheduler=scheduler,
        )
        assert result.tests_run <= 3


class TestRandomCheck:
    def test_finds_bug_in_sample(self, scheduler):
        result = random_check(
            SystemUnderTest(BuggyCounter1, "c"),
            [INC, GET],
            rows=2,
            cols=2,
            samples=10,
            seed=0,
            scheduler=scheduler,
        )
        assert result.verdict == "FAIL"

    def test_complete_no_false_alarms_on_correct_code(self, scheduler):
        result = random_check(
            SystemUnderTest(Counter, "c"),
            [INC, GET],
            rows=2,
            cols=2,
            samples=10,
            seed=0,
            scheduler=scheduler,
        )
        assert result.verdict == "PASS"
        assert result.tests_failed == 0

    def test_stop_at_first_failure(self, scheduler):
        eager = random_check(
            SystemUnderTest(BuggyCounter1, "c"),
            [INC, GET],
            rows=2,
            cols=2,
            samples=10,
            seed=0,
            stop_at_first_failure=True,
            scheduler=scheduler,
        )
        assert eager.tests_failed == 1

    def test_keep_results_exposes_all(self, scheduler):
        result = random_check(
            SystemUnderTest(Counter, "c"),
            [INC],
            rows=1,
            cols=2,
            samples=1,
            keep_results=True,
            scheduler=scheduler,
        )
        assert len(result.results) == result.tests_run


class TestMinimization:
    def test_minimizes_to_three_ops(self, scheduler):
        # The lost-update bug needs inc || inc plus an observing get.
        big = FiniteTest.of([[INC, GET, INC], [INC, INC, GET], [GET, INC, INC]])
        minimized, result = minimize_failing_test(
            SystemUnderTest(BuggyCounter1, "c"), big, scheduler=scheduler
        )
        assert result.failed
        assert minimized.total_operations == 3
        assert minimized.n_threads == 2

    def test_rejects_passing_test(self, scheduler):
        with pytest.raises(ValueError):
            minimize_failing_test(
                SystemUnderTest(Counter, "c"),
                FiniteTest.of([[INC], [GET]]),
                scheduler=scheduler,
            )

    def test_custom_predicate_restricts_shrinking(self, scheduler):
        big = FiniteTest.of([[INC, GET], [INC, INC]])
        minimized, result = minimize_failing_test(
            SystemUnderTest(BuggyCounter1, "c"),
            big,
            still_fails=lambda r: r.failed
            and r.violation.kind == "non-linearizable-history",
            scheduler=scheduler,
        )
        assert result.violation.kind == "non-linearizable-history"


class SpinsUnderContention:
    """``Op`` returns 0 serially; entered while another ``Op`` is inside,
    it spins without ever reaching a scheduling point (a divergence only
    the watchdog can end)."""

    def __init__(self, runtime):
        self._busy = runtime.volatile(False)

    def Op(self):
        if self._busy.get():
            while True:
                pass
        self._busy.set(True)
        self._busy.set(False)
        return 0


class TestMinimizationUnderAWatchdog:
    def test_the_shrinker_runs_under_the_watchdog_the_check_ran_under(self):
        import threading

        op = Invocation("Op")
        test = FiniteTest.of([[op, op], [op]])
        cfg = CheckConfig(watchdog_seconds=0.2)
        answer = []
        shrinker = threading.Thread(
            target=lambda: answer.append(
                minimize_failing_test(
                    SystemUnderTest(SpinsUnderContention, "spins"), test, cfg
                )
            ),
            daemon=True,
        )
        shrinker.start()
        shrinker.join(timeout=60)
        assert not shrinker.is_alive(), "minimize_failing_test hung on a divergence"
        (minimized, result), = answer
        assert result.failed and result.phase2_divergent == 1
        assert result.violation.kind == "non-linearizable-blocking"
        assert minimized == FiniteTest.of([[op], [op]])
