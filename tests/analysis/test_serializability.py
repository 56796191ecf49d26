"""Conflict-serializability monitoring and its false alarms (Section 5.6)."""

from __future__ import annotations

from repro.analysis import check_conflict_serializability
from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness, check
from repro.core.harness import OpMark
from repro.runtime import AccessRecord, DFSStrategy
from repro.structures import ConcurrentStack, SemaphoreSlim


def mark(thread, idx, kind):
    return OpMark(thread, idx, kind)


def acc(thread, kind, loc, stamp=0):
    return AccessRecord(stamp, thread, kind, loc, f"loc{loc}", volatile=False)


class TestDirectGraphs:
    def test_serial_transactions_are_serializable(self):
        log = [
            mark(0, 0, "begin"), acc(0, "write", 1), mark(0, 0, "end"),
            mark(1, 0, "begin"), acc(1, "read", 1), mark(1, 0, "end"),
        ]
        report = check_conflict_serializability(log)
        assert report.serializable
        assert report.transactions == 2

    def test_interleaved_conflicting_transactions_cycle(self):
        # T0 reads then writes around T1's conflicting write: classic
        # non-serializable pattern (T0 -> T1 -> T0).
        log = [
            mark(0, 0, "begin"), acc(0, "read", 1),
            mark(1, 0, "begin"), acc(1, "write", 1), mark(1, 0, "end"),
            acc(0, "write", 1), mark(0, 0, "end"),
        ]
        report = check_conflict_serializability(log)
        assert not report.serializable
        assert len(report.cycle) >= 2

    def test_disjoint_locations_serializable(self):
        log = [
            mark(0, 0, "begin"), acc(0, "write", 1),
            mark(1, 0, "begin"), acc(1, "write", 2), mark(1, 0, "end"),
            acc(0, "write", 1), mark(0, 0, "end"),
        ]
        assert check_conflict_serializability(log).serializable

    def test_read_read_interleaving_serializable(self):
        log = [
            mark(0, 0, "begin"), acc(0, "read", 1),
            mark(1, 0, "begin"), acc(1, "read", 1), mark(1, 0, "end"),
            acc(0, "read", 1), mark(0, 0, "end"),
        ]
        assert check_conflict_serializability(log).serializable

    def test_empty_log(self):
        report = check_conflict_serializability([])
        assert report.serializable
        assert report.transactions == 0


class TestFalseAlarmPatterns:
    """The paper's benign non-serializable patterns on *correct* code."""

    def test_cas_retry_loop_pattern(self, scheduler):
        """Pattern 1: a failing CAS leads to a retry; the accesses before
        the retry break serializability (ConcurrentStack/Queue)."""
        test = FiniteTest.of(
            [[Invocation("Push", (1,))], [Invocation("Push", (2,))]]
        )
        sut = SystemUnderTest(lambda rt: ConcurrentStack(rt, "beta"), "stack")
        flagged = 0
        with TestHarness(sut, scheduler=scheduler) as harness:
            for _h, outcome in harness.explore_concurrent(
                test, DFSStrategy(preemption_bound=2), max_executions=500
            ):
                if not check_conflict_serializability(outcome.accesses).serializable:
                    flagged += 1
        assert flagged > 0
        # ... and yet the class is linearizable: all false alarms.
        result = check(sut, test, scheduler=scheduler)
        assert result.passed

    def test_semaphore_fast_path_pattern(self, scheduler):
        """Pattern 2: the timing-optimized CAS fast path in SemaphoreSlim
        breaks serializability without affecting correctness."""
        test = FiniteTest.of(
            [[Invocation("WaitZero")], [Invocation("Release")]]
        )
        sut = SystemUnderTest(lambda rt: SemaphoreSlim(rt, "beta"), "sem")
        flagged = 0
        with TestHarness(sut, scheduler=scheduler) as harness:
            for _h, outcome in harness.explore_concurrent(
                test, DFSStrategy(preemption_bound=2), max_executions=500
            ):
                if not check_conflict_serializability(outcome.accesses).serializable:
                    flagged += 1
        assert flagged > 0
        result = check(sut, test, scheduler=scheduler)
        assert result.passed
