"""Harris-style lock-free set: semantics, helping, and checking."""

from __future__ import annotations

import pytest

from tests.conftest import inv, run_sequential

from repro.core import FiniteTest, Invocation, SystemUnderTest, check
from repro.runtime import DFSStrategy
from tests.structures.lock_free_set import LockFreeSet


def make(version="beta"):
    return lambda rt: LockFreeSet(rt, version)


def _inv(method, *args):
    return Invocation(method, args)


def raw_contents(lfs) -> list:
    """Controller-side walk via peek() (no scheduling points)."""
    out = []
    curr, _ = lfs._head.link.peek()
    while curr is not lfs._tail:
        succ, marked = curr.link.peek()
        if not marked:
            out.append(curr.key)
        curr = succ
    return out


class TestSequentialSemantics:
    @pytest.mark.parametrize("version", ["beta", "pre"])
    def test_insert_remove_contains(self, scheduler, version):
        out = run_sequential(
            scheduler,
            make(version),
            [inv("Insert", 2), inv("Insert", 1), inv("Insert", 2),
             inv("Contains", 1), inv("ToArray"), inv("Remove", 1),
             inv("Contains", 1), inv("Remove", 1), inv("Size")],
        )
        values = [r.value for r in out]
        assert values == [True, True, False, True, (1, 2), True, False,
                          False, 1]

    @pytest.mark.parametrize("version", ["beta", "pre"])
    def test_sorted_order_maintained(self, scheduler, version):
        out = run_sequential(
            scheduler,
            make(version),
            [inv("Insert", 3), inv("Insert", 1), inv("Insert", 2),
             inv("ToArray")],
        )
        assert out[-1].value == (1, 2, 3)


class TestConservationUnderExploration:
    def test_beta_keeps_every_committed_insert(self, scheduler, runtime):
        def factory():
            lfs = LockFreeSet(runtime, "beta")
            outcome_log = []

            def remover():
                lfs.Insert(1)
                lfs.Remove(1)

            def inserter():
                if lfs.Insert(2):
                    outcome_log.append(2)

            factory.set = lfs
            factory.log = outcome_log
            return [remover, inserter]

        strategy = DFSStrategy(preemption_bound=2)
        executions = 0
        while strategy.more() and executions < 8000:
            outcome = scheduler.execute(factory(), strategy)
            executions += 1
            assert outcome.status != "stuck"
            # 2 was inserted and never removed: it must be in the set.
            assert factory.log == [2]
            final = raw_contents(factory.set)
            assert 2 in final, f"committed insert lost: final={final}"

    def test_pre_version_loses_inserts(self, scheduler, runtime):
        lost = False

        def factory():
            lfs = LockFreeSet(runtime, "pre")

            def remover():
                lfs.Insert(1)
                lfs.Remove(1)

            def inserter():
                lfs.Insert(2)

            factory.set = lfs
            return [remover, inserter]

        strategy = DFSStrategy(preemption_bound=3)
        executions = 0
        while strategy.more() and executions < 30000:
            scheduler.execute(factory(), strategy)
            executions += 1
            if 2 not in raw_contents(factory.set):
                lost = True
                break
        assert lost, "the unlink-without-mark bug should drop an insert"


class TestLinearizability:
    def test_beta_core_operations_pass(self, scheduler):
        test = FiniteTest.of(
            [
                [_inv("Insert", 1), _inv("Remove", 1)],
                [_inv("Insert", 1), _inv("Contains", 1)],
            ]
        )
        result = check(
            SystemUnderTest(make("beta"), "lfset"), test, scheduler=scheduler
        )
        assert result.passed, result.violation.describe()

    def test_beta_helping_under_contention_passes(self, scheduler):
        test = FiniteTest.of(
            [
                [_inv("Remove", 1), _inv("Insert", 3)],
                [_inv("Remove", 1), _inv("Contains", 3)],
            ],
            init=[_inv("Insert", 1)],
        )
        result = check(
            SystemUnderTest(make("beta"), "lfset"), test, scheduler=scheduler
        )
        assert result.passed, result.violation.describe()

    def test_pre_lost_insert_caught(self, scheduler):
        test = FiniteTest.of(
            [
                [_inv("Remove", 1), _inv("Contains", 2)],
                [_inv("Insert", 2)],
            ],
            init=[_inv("Insert", 1)],
        )
        result = check(
            SystemUnderTest(make("pre"), "lfset"), test, scheduler=scheduler
        )
        assert result.failed
        assert result.violation.kind == "non-linearizable-history"

    def test_iteration_is_weakly_consistent_and_lineup_finds_it(self, scheduler):
        """The famous result, rediscovered automatically: a lock-free list
        iterator can return a view ((5, 7) here) that the set never held
        at any instant — missing 1 while including the later-inserted 7."""
        test = FiniteTest.of(
            [[_inv("ToArray")], [_inv("Insert", 1), _inv("Insert", 7)]],
            init=[_inv("Insert", 5)],
        )
        result = check(
            SystemUnderTest(make("beta"), "lfset"), test, scheduler=scheduler
        )
        assert result.failed
        snapshot_op = next(
            op
            for op in result.violation.history.operations
            if op.invocation.method == "ToArray"
        )
        assert snapshot_op.response.value == (5, 7)
