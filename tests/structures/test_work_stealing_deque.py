"""Chase–Lev work-stealing deque: semantics, races, and the Section 6
extension earning its keep on a real lock-free algorithm."""

from __future__ import annotations

import pytest

from tests.conftest import inv, run_sequential

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    InterferencePolicy,
    InterferenceRule,
    SystemUnderTest,
    TestHarness,
    check,
    check_relaxed,
)
from repro.runtime import DFSStrategy
from tests.structures.work_stealing_deque import WorkStealingDeque

STEAL_POLICY = InterferencePolicy(
    [InterferenceRule("Steal", interferers=("Steal",))]
)


def make(version="beta", capacity=8):
    return lambda rt: WorkStealingDeque(rt, version, capacity=capacity)


def _inv(method, *args):
    return Invocation(method, args)


class TestSequentialSemantics:
    @pytest.mark.parametrize("version", ["beta", "pre"])
    def test_owner_lifo_thief_fifo(self, scheduler, version):
        out = run_sequential(
            scheduler,
            make(version),
            [inv("PushBottom", 1), inv("PushBottom", 2), inv("PushBottom", 3),
             inv("PopBottom"), inv("Steal"), inv("PopBottom"),
             inv("PopBottom"), inv("Steal")],
        )
        values = [r.value for r in out]
        # owner pops newest (3), thief steals oldest (1), owner pops 2,
        # then both sides find it empty.
        assert values == [True, True, True, 3, 1, 2, "Fail", "Fail"]

    @pytest.mark.parametrize("version", ["beta", "pre"])
    def test_capacity_limit(self, scheduler, version):
        out = run_sequential(
            scheduler,
            make(version, capacity=2),
            [inv("PushBottom", 1), inv("PushBottom", 2), inv("PushBottom", 3),
             inv("Size")],
        )
        assert [r.value for r in out] == [True, True, False, 2]

    @pytest.mark.parametrize("version", ["beta", "pre"])
    def test_wraparound(self, scheduler, version):
        script = []
        for round_no in range(3):
            script += [inv("PushBottom", round_no), inv("Steal")]
        out = run_sequential(scheduler, make(version, capacity=2), script)
        values = [r.value for r in out]
        assert values == [True, 0, True, 1, True, 2]


class TestConservationUnderExploration:
    def test_no_element_lost_or_duplicated_in_beta(self, scheduler, runtime):
        def factory():
            deque = WorkStealingDeque(runtime, "beta")
            got = []

            def owner():
                deque.PushBottom(1)
                deque.PushBottom(2)
                value = deque.PopBottom()
                if value != "Fail":
                    got.append(value)

            def thief():
                value = deque.Steal()
                if value != "Fail":
                    got.append(value)

            factory.deque = deque
            factory.got = got
            return [owner, thief, thief]

        strategy = DFSStrategy(preemption_bound=2)
        executions = 0
        while strategy.more() and executions < 6000:
            outcome = scheduler.execute(factory(), strategy)
            executions += 1
            assert outcome.status != "stuck"
            taken = factory.got
            top = factory.deque._top.peek()
            bottom = factory.deque._bottom.peek()
            remaining = [
                factory.deque._array._items[i % 8] for i in range(top, bottom)
            ]
            everything = sorted(taken + remaining)
            assert everything == sorted(set(everything)), "duplication!"
            assert len(everything) == 2, "element lost!"

    def test_pre_version_duplicates_last_element(self, scheduler, runtime):
        duplicated = False

        def factory():
            deque = WorkStealingDeque(runtime, "pre")
            got = []

            def owner():
                deque.PushBottom(1)
                value = deque.PopBottom()
                if value != "Fail":
                    got.append(value)

            def thief():
                value = deque.Steal()
                if value != "Fail":
                    got.append(value)

            factory.got = got
            return [owner, thief]

        # Raw bodies have no operation boundaries, so the interleaving
        # costs one more preemption than under the test harness.
        strategy = DFSStrategy(preemption_bound=3)
        while strategy.more():
            scheduler.execute(factory(), strategy)
            if sorted(factory.got) == [1, 1]:
                duplicated = True
        assert duplicated, "the seeded bug should duplicate the last element"


class TestLinearizability:
    OWNER_THIEF_TEST = FiniteTest.of(
        [[_inv("PushBottom", 1), _inv("PopBottom")], [_inv("Steal")]]
    )
    TWO_THIEVES_TEST = FiniteTest.of(
        [
            [_inv("PushBottom", 1), _inv("PushBottom", 2)],
            [_inv("Steal")],
            [_inv("Steal")],
        ]
    )

    def test_beta_owner_vs_one_thief_strictly_linearizable(self, scheduler):
        result = check(
            SystemUnderTest(make("beta"), "wsd"),
            self.OWNER_THIEF_TEST,
            scheduler=scheduler,
        )
        assert result.passed, result.violation.describe()

    def test_pre_duplication_caught_strictly(self, scheduler):
        result = check(
            SystemUnderTest(make("pre"), "wsd"),
            self.OWNER_THIEF_TEST,
            scheduler=scheduler,
        )
        assert result.failed
        assert result.violation.kind == "non-linearizable-history"

    def test_two_thieves_fail_strict_mode(self, scheduler):
        """A thief losing the top CAS to another thief aborts with items
        remaining — a strict violation by design."""
        result = check(
            SystemUnderTest(make("beta"), "wsd"),
            self.TWO_THIEVES_TEST,
            scheduler=scheduler,
        )
        assert result.failed

    def test_two_thieves_pass_relaxed_with_policy(self, scheduler):
        subject = SystemUnderTest(make("beta"), "wsd")
        with TestHarness(subject, scheduler=scheduler) as harness:
            result = check_relaxed(
                harness, self.TWO_THIEVES_TEST, CheckConfig(), STEAL_POLICY
            )
        assert result.passed, result.violation.describe()

    def test_pre_duplication_not_excused_by_policy(self, scheduler):
        """The interference policy excuses lost steal races, not the
        duplication bug: the same relaxed check still fails the pre
        version."""
        subject = SystemUnderTest(make("pre"), "wsd")
        with TestHarness(subject, scheduler=scheduler) as harness:
            result = check_relaxed(
                harness, self.OWNER_THIEF_TEST, CheckConfig(), STEAL_POLICY
            )
        assert result.failed
