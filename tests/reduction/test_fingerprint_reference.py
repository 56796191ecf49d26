"""The indexed dependence analysis against the quadratic one it replaced.

``tests/reduction/reference.py`` holds the pre-index implementation.  The
digests are persisted in checkpoints and swarm shard states, and a
resumed run unions old digests with new ones — so the
indexed implementation must reproduce them byte for byte, on real
executions of every registered structure and on the corner cases
(deadlocks, watchdog-truncated runs, value decisions).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import parse_test
from repro.core import (
    Event,
    FiniteTest,
    Invocation,
    Response,
    SystemUnderTest,
    TestHarness,
)
from repro.core.checker import CheckConfig, check
from repro.reduction import (
    DependenceIndex,
    StepFootprint,
    conflicts,
    earlier_conflicts,
    execution_fingerprint,
    happens_before_clocks,
    step_footprints,
)
from repro.reduction import fingerprint as fingerprint_module
from repro.runtime import RandomStrategy, dfs_with_reduction
from repro.runtime.scheduler import Decision, ExecutionOutcome
from repro.structures.registry import REGISTRY, get_class

from .reference import (
    _digest as reference_digest,
    reference_execution_fingerprint,
    reference_happens_before_clocks,
    reference_step_footprints,
)

ENGINES = ("baton", "coop")
REDUCTIONS = ("none", "sleep", "dpor")
ENTRIES = {entry.name: entry for entry in REGISTRY}

#: Executions compared per (structure, engine, reduction) cell.
CELL_EXECUTIONS = 40


def _subject(name: str, version: str) -> SystemUnderTest:
    return SystemUnderTest(get_class(name).factory(version), f"{name}({version})")


def _witness_or_small_test(entry, version):
    for cause in entry.causes_for(version):
        if cause.witness_test is not None:
            return cause.witness_test
    invocations = list(entry.invocations)
    return FiniteTest.of(
        [invocations[:2], invocations[2:3] or invocations[:1]],
        init=list(entry.init),
    )


def _assert_matches_reference(outcome: ExecutionOutcome) -> None:
    footprints = step_footprints(outcome)
    assert footprints == reference_step_footprints(outcome)
    assert happens_before_clocks(
        outcome, footprints
    ) == reference_happens_before_clocks(outcome, footprints)
    assert execution_fingerprint(outcome) == reference_execution_fingerprint(
        outcome
    )


class TestDifferentialCorpus:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_dfs_explorations_match_reference(self, name, engine):
        entry = ENTRIES[name]
        test = _witness_or_small_test(entry, "pre")
        for reduction in REDUCTIONS:
            with TestHarness(_subject(name, "pre"), engine=engine) as harness:
                for _, outcome in harness.explore_concurrent(
                    test,
                    dfs_with_reduction(reduction, 2),
                    max_executions=CELL_EXECUTIONS,
                ):
                    _assert_matches_reference(outcome)

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_random_walks_match_reference(self, name):
        entry = ENTRIES[name]
        test = _witness_or_small_test(entry, "beta")
        for seed, engine in enumerate(ENGINES):
            with TestHarness(_subject(name, "beta"), engine=engine) as harness:
                for _, outcome in harness.explore_concurrent(
                    test, RandomStrategy(CELL_EXECUTIONS // 2, seed=seed)
                ):
                    _assert_matches_reference(outcome)

    def test_divergent_execution_matches_reference(self):
        class Spinner:
            def __init__(self, runtime):
                self._cell = runtime.volatile(0)

            def Touch(self):
                self._cell.set(self._cell.get() + 1)

            def Spin(self):
                self._cell.get()
                while True:  # never reaches a scheduling point again
                    pass

        test = parse_test("Touch; Spin | Touch")
        subject = SystemUnderTest(Spinner, "Spinner")
        with TestHarness(subject, watchdog=0.2) as harness:
            _, outcome = next(
                harness.explore_concurrent(test, dfs_with_reduction("none", 2))
            )
        assert outcome.divergent
        _assert_matches_reference(outcome)


def _first_outcome(name, version, text, wanted) -> ExecutionOutcome:
    with TestHarness(_subject(name, version)) as harness:
        for _, outcome in harness.explore_concurrent(
            parse_test(text), dfs_with_reduction("none", 2)
        ):
            if wanted(outcome):
                return outcome
    raise AssertionError("no such execution")


class TestPinnedDigests:
    """Literal digests computed at the commit before the index (9cfb9f2).

    A format drift would make resumed checkpoints and swarm shard
    states count every class twice; these fail by name when it happens.
    """

    def test_complete_execution(self):
        outcome = _first_outcome(
            "ConcurrentQueue",
            "beta",
            "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue",
            lambda o: o.status == "complete",
        )
        assert execution_fingerprint(outcome) == "c4b111356118eff00c78c1b0a83fddf3"

    def test_stuck_execution(self):
        outcome = _first_outcome(
            "ManualResetEvent", "beta", "Wait | Wait; Set", lambda o: o.status == "stuck"
        )
        assert outcome.stuck_kind == "deadlock"
        assert execution_fingerprint(outcome) == "f38766a8cc8812fb965105c79eb28d02"

    def test_execution_with_a_value_decision(self):
        outcome = _first_outcome(
            "CancellationTokenSource",
            "beta",
            "Increment; Cancel | Increment",
            lambda o: any(d.kind == "value" for d in o.decisions),
        )
        assert execution_fingerprint(outcome) == "59e277890ff954afcd0438e08eb0a015"


def _returning(value) -> ExecutionOutcome:
    """A hand-built one-operation execution whose operation returns *value*."""
    outcome = ExecutionOutcome(status="complete")
    outcome.decisions.append(Decision("thread", (0,), 0, None, free=True))
    outcome.record_event(Event.call(0, 0, Invocation("Get")))
    outcome.record_event(Event.ret(0, 0, Response.of(value)))
    return outcome


class TestDigestBytes:
    def test_equal_events_with_different_reprs_keep_different_digests(self):
        # Response('ok', 1) == Response('ok', True) and they hash alike,
        # but the digest is made of reprs: a repr memo keyed by event
        # equality alone would hand one test's '1' to another test's
        # 'True' within one campaign process and move the digest.
        values = [1, True, 1.0, (1,), (True,), (1.0,), "1", None, 0.0, -0.0]
        expected = [reference_execution_fingerprint(_returning(v)) for v in values]
        assert len(set(expected)) == len(values)
        indexes = list(range(len(values)))
        for order in (indexes, indexes[::-1]):  # hits after every kind of miss
            for i in order:
                assert execution_fingerprint(_returning(values[i])) == expected[i]

    def test_unhashable_payload_falls_back_to_plain_repr(self):
        assert execution_fingerprint(
            _returning([1, {2}])
        ) == reference_execution_fingerprint(_returning([1, {2}]))

    def test_event_repr_memo_is_bounded(self):
        limit = fingerprint_module._EVENT_REPRS_LIMIT
        for value in range(limit + 10):
            execution_fingerprint(_returning(value))
        assert 0 < len(fingerprint_module._EVENT_REPRS) <= limit

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=8), max_size=8))
    def test_one_shot_hash_equals_the_incremental_one(self, parts):
        # Lone surrogates go through ``backslashreplace`` per character,
        # so encoding the joined string equals joining the encodings.
        assert fingerprint_module._digest(parts) == reference_digest(parts)


_locations = st.frozensets(st.integers(min_value=0, max_value=5), max_size=3)
_footprints = st.lists(
    st.builds(
        StepFootprint,
        thread=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        reads=_locations,
        writes=_locations,
    ),
    max_size=30,
)


class TestEarlierConflicts:
    @settings(max_examples=300, deadline=None)
    @given(_footprints)
    def test_index_equals_the_pairwise_scan(self, footprints):
        indexed = earlier_conflicts(
            [f.thread for f in footprints],
            [f.reads for f in footprints],
            [f.writes for f in footprints],
        )
        assert indexed == [
            [
                j
                for j in range(i)
                if footprints[j].thread != footprints[i].thread
                and conflicts(footprints[j], footprints[i])
            ]
            for i in range(len(footprints))
        ]


class TestOneAnalysisPerOutcome:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_index_is_derived_once_per_execution(self, reduction, monkeypatch):
        derived = []
        footprint_lists = []
        derive = DependenceIndex.__init__
        build = DependenceIndex.footprints

        def counting_derive(self, outcome):
            derived.append(id(outcome))
            derive(self, outcome)

        def counting_build(self):
            if self._footprints is None:
                footprint_lists.append(id(self))
            return build(self)

        monkeypatch.setattr(DependenceIndex, "__init__", counting_derive)
        monkeypatch.setattr(DependenceIndex, "footprints", counting_build)
        result = check(
            _subject("ConcurrentQueue", "beta"),
            parse_test("Enqueue(1); TryDequeue | Enqueue(2)"),
            CheckConfig(reduction=reduction),
        )
        assert result.passed
        # The strategy's analysis and the checker's fingerprint share one
        # index; plain DFS needs no StepFootprint objects at all.
        assert len(derived) == result.phase2_executions
        assert len(footprint_lists) == (
            0 if reduction == "none" else result.phase2_executions
        )
