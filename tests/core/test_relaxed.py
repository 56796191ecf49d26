"""The Section 6 extensions: nondeterministic specs + interference rules."""

from __future__ import annotations

import pytest

from repro.core import (
    DOTNET_POLICIES,
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
from repro.structures import get_class


def relaxed_check(scheduler, class_name, version, test, policy=None):
    entry = get_class(class_name)
    subject = SystemUnderTest(entry.factory(version), f"{class_name}({version})")
    with TestHarness(subject, scheduler=scheduler) as harness:
        return check_relaxed(harness, test, CheckConfig(), policy)


def cause_test(class_name, tag):
    entry = get_class(class_name)
    return next(c for c in entry.causes if c.tag == tag).witness_test


class TestNondeterministicSpecs:
    def test_cancellation_passes_without_determinism_gate(self, scheduler):
        """Finding K: the async cancel is nondeterministic but every
        concurrent behaviour matches *some* serial behaviour."""
        test = cause_test("CancellationTokenSource", "K")
        strict = check(
            SystemUnderTest(
                get_class("CancellationTokenSource").factory("beta"), "cts"
            ),
            test,
            scheduler=scheduler,
        )
        assert strict.failed
        assert strict.violation.kind == "nondeterministic-specification"
        relaxed = relaxed_check(scheduler, "CancellationTokenSource", "beta", test)
        assert relaxed.passed

    def test_barrier_still_fails_relaxed(self, scheduler):
        """Finding L is nonlinearizability, not nondeterminism: no amount
        of spec relaxation produces a serial witness."""
        result = relaxed_check(
            scheduler, "Barrier", "beta", cause_test("Barrier", "L")
        )
        assert result.failed


class TestInterferencePolicies:
    def test_bag_h_excused_with_policy(self, scheduler):
        test = cause_test("ConcurrentBag", "H")
        without = relaxed_check(scheduler, "ConcurrentBag", "beta", test)
        assert without.failed
        with_policy = relaxed_check(
            scheduler, "ConcurrentBag", "beta", test,
            DOTNET_POLICIES["ConcurrentBag"],
        )
        assert with_policy.passed

    @pytest.mark.parametrize("tag", ["I", "J"])
    def test_blocking_collection_documented_behaviours_excused(
        self, scheduler, tag
    ):
        test = cause_test("BlockingCollection", tag)
        result = relaxed_check(
            scheduler, "BlockingCollection", "beta", test,
            DOTNET_POLICIES["BlockingCollection"],
        )
        assert result.passed

    def test_figure1_bug_not_excused(self, scheduler):
        """The policy narrows interference to racing consumers, so the
        Fig. 1 TryTake-vs-Add failure stays a violation."""
        test = cause_test("BlockingCollection", "D")
        result = relaxed_check(
            scheduler, "BlockingCollection", "pre", test,
            DOTNET_POLICIES["BlockingCollection"],
        )
        assert result.failed

    @pytest.mark.parametrize(
        "class_name,tag",
        [
            ("ManualResetEvent", "A"),
            ("SemaphoreSlim", "B"),
            ("CountdownEvent", "C"),
            ("ConcurrentDictionary", "E"),
            ("ConcurrentStack", "F"),
            ("Lazy", "G"),
        ],
    )
    def test_real_bugs_survive_relaxation(self, scheduler, class_name, tag):
        result = relaxed_check(
            scheduler,
            class_name,
            "pre",
            cause_test(class_name, tag),
            DOTNET_POLICIES.get(class_name),
        )
        assert result.failed

    def test_policy_requires_overlap(self):
        """allows() demands a qualifying overlapping operation."""
        from repro.core.events import Event, Response

        policy = InterferencePolicy([InterferenceRule("TryTake")])
        from repro.core.history import History

        take_call = Event.call(0, 0, Invocation("TryTake"))
        take_ret = Event.ret(0, 0, Response.of("Fail"))
        add_call = Event.call(1, 0, Invocation("Add", (1,)))
        add_ret = Event.ret(1, 0, Response.of(None))

        overlapping = History([take_call, add_call, take_ret, add_ret], 2)
        take_op = overlapping.operation_map[(0, 0)]
        assert policy.allows(take_op, overlapping)

        # Add strictly before TryTake: no overlap, no excuse.
        sequential = History([add_call, add_ret, take_call, take_ret], 2)
        take_op = sequential.operation_map[(0, 0)]
        assert not policy.allows(take_op, sequential)

        # Interferer filter: only a qualifying method's overlap counts.
        narrow = InterferencePolicy(
            [InterferenceRule("TryTake", interferers=("TryTake",))]
        )
        take_op = overlapping.operation_map[(0, 0)]
        assert not narrow.allows(take_op, overlapping)

        # A successful response is never excused.
        success = History(
            [take_call, add_call, Event.ret(0, 0, Response.of(1)), add_ret], 2
        )
        take_op = success.operation_map[(0, 0)]
        assert not policy.allows(take_op, success)

    def test_rule_response_values_respected(self, scheduler):
        """A rule for response 0 does not excuse response 1."""
        policy = InterferencePolicy(
            [InterferenceRule("Count", responses=(0,), interferers=None)]
        )
        test = FiniteTest.of(
            [
                [Invocation("TryRemove", (20,)), Invocation("TryAdd", (10,))],
                [Invocation("Count")],
            ],
            init=[Invocation("TryAdd", (20,))],
        )
        # The dictionary-E violation returns Count=2; a 0-only rule must
        # not excuse it.
        result = relaxed_check(
            scheduler, "ConcurrentDictionary", "pre", test, policy
        )
        assert result.failed


class TestIterativeStrategy:
    def test_iterative_finds_bug_like_dfs(self, scheduler):
        from repro.structures.counters import BuggyCounter1

        cfg = CheckConfig(phase2_strategy="iterative", preemption_bound=2)
        result = check(
            SystemUnderTest(BuggyCounter1, "c"),
            FiniteTest.of([[Invocation("inc"), Invocation("get")], [Invocation("inc")]]),
            cfg,
            scheduler=scheduler,
        )
        assert result.failed

    def test_iterative_passes_correct_code(self, scheduler):
        from repro.structures.counters import Counter

        cfg = CheckConfig(phase2_strategy="iterative", preemption_bound=1)
        result = check(
            SystemUnderTest(Counter, "c"),
            FiniteTest.of([[Invocation("inc")], [Invocation("get")]]),
            cfg,
            scheduler=scheduler,
        )
        assert result.passed

    def test_iterative_explores_bounds_in_order(self, scheduler, runtime):
        from repro.runtime import IterativeDFSStrategy

        box = {}

        def factory():
            cell = runtime.volatile(0)
            box["cell"] = cell

            def body():
                v = cell.get()
                cell.set(v + 1)

            return [body, body]

        strategy = IterativeDFSStrategy(max_bound=2)
        finals_by_round = []
        while strategy.more():
            scheduler.execute(factory(), strategy)
            finals_by_round.append((strategy.bound, box["cell"].peek()))
        bounds = [b for b, _ in finals_by_round]
        assert bounds == sorted(bounds)  # bound never decreases
        # the racy final value 1 appears only once bound >= 1
        first_racy = next(b for b, v in finals_by_round if v == 1)
        assert first_racy >= 1


class TestTheOneLoop:
    """``check_relaxed`` runs the checker's two phases, so what bounds,
    interrupts and measures a strict check does the same here."""

    TEST = FiniteTest.of(
        [[Invocation("Add", (1,)), Invocation("TryTake")], [Invocation("TryTake")]]
    )

    def _check(self, cfg, **kwargs):
        subject = SystemUnderTest(get_class("ConcurrentBag").factory("beta"), "bag")
        with TestHarness(subject) as harness:
            return check_relaxed(
                harness, self.TEST, cfg, DOTNET_POLICIES["ConcurrentBag"], **kwargs
            )

    def test_config_budget_ends_exhausted_at_exactly_n_executions(self):
        from repro.core.budget import ExplorationBudget

        result = self._check(CheckConfig(budget=ExplorationBudget(max_executions=20)))
        assert result.exhausted and result.exhausted_reason == "executions"
        assert not result.phase2_complete
        assert result.phase1.executions + result.phase2_executions == 20

    def test_a_budget_spent_in_phase_1_never_reaches_phase_2(self):
        from repro.core.budget import ExplorationBudget

        result = self._check(CheckConfig(budget=ExplorationBudget(max_executions=2)))
        assert result.exhausted and not result.phase1.complete
        assert (result.phase1.executions, result.phase2_executions) == (2, 0)

    def test_a_stop_flag_is_reported_as_interrupted(self):
        from repro.core.budget import ExplorationControl

        calls = iter(range(100))
        control = ExplorationControl(stop=lambda: next(calls) >= 10)
        result = self._check(CheckConfig(), control=control)
        assert result.exhausted and result.exhausted_reason == "interrupted"
        assert 0 < result.phase2_executions < 122

    def test_the_execution_cap_leaves_the_run_incomplete(self):
        result = self._check(CheckConfig(max_concurrent_executions=7))
        assert result.passed and result.phase2_executions == 7
        assert not result.phase2_complete

    def test_statistics_are_those_of_a_strict_check(self):
        result = self._check(CheckConfig(reduction="dpor"))
        assert result.passed and result.phase2_complete
        assert (
            result.reduction,
            result.schedules_explored,
            result.equivalence_classes,
            result.schedules_pruned,
        ) == ("dpor", 33, 33, 35)
        assert 0 < result.phase2_judged <= result.phase2_executions == 33
