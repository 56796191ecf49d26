"""Phase 1 by state against plain replay: the same enumeration, fewer runs.

``TestHarness.run_serial`` explores by state (:mod:`repro.core.phase1`):
it runs the object under test once per distinct (thread positions, object
state) node and enumerates the other serial executions from what it
recorded.  The reference is a fold of plain ``explore_serial`` — every
execution replayed from the initial state, exactly the phase 1 earlier
builds ran.  Both must agree on everything phase 1 hands on: the full and
stuck histories in order, the nondeterminism witness, the counts, where a
cap or budget stops, the budget's meter and the DFS frontier a checkpoint
would save.  Only ``runs`` may differ.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import parse_test
from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.checker import CheckConfig, check
from repro.core.checkpoint import load_checkpoint, parse_check_state
from repro.core.harness import Phase1Stats
from repro.core.spec import ObservationSet
from repro.core.testcase import sample_tests
from repro.runtime import DFSStrategy, WatchdogConfig
from repro.structures.registry import REGISTRY, get_class

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
VERSIONS = ("pre", "beta")
#: A 3×3 queue test: 1 680 serial executions, one history each.
QUEUE_3X3 = parse_test(
    "Enqueue(1); TryDequeue; Enqueue(2) | TryDequeue; Enqueue(3); TryDequeue"
    " | Enqueue(4); TryDequeue; TryDequeue"
)


def _replay(harness, test, max_executions=None, control=None):
    """Phase 1 as a fold of plain ``explore_serial`` (the reference)."""
    observations = ObservationSet(test.n_threads)
    stats = Phase1Stats()
    strategy = DFSStrategy(preemption_bound=None)
    if control is not None:
        control.start()
    for outcome in harness.explore_serial(test, strategy, max_executions):
        stats.executions += 1
        stats.runs += 1
        if control is not None:
            control.note(outcome)
        if outcome.divergent:
            stats.divergent += 1
        serial = harness.history_from_outcome(outcome, test).to_serial()
        if observations.add(serial):
            stats.histories += 1
            stats.stuck_histories += serial.stuck
        if control is not None:
            stats.stop_reason = control.halt_reason()
            if stats.stop_reason is not None:
                break
    stats.complete = stats.stop_reason is None and not strategy.more()
    return observations, stats, strategy


def _by_state(harness, test, max_executions=None, control=None):
    strategy = DFSStrategy(preemption_bound=None)
    observations, stats = harness.run_serial(
        test, max_executions, strategy=strategy, control=control
    )
    return observations, stats, strategy


def _spec(observations):
    witness = observations.nondeterminism
    return (
        [h.tokens() for h in observations.full],
        [h.tokens() for h in observations.stuck],
        None if witness is None else (
            witness.first.tokens(), witness.second.tokens(), witness.thread,
            witness.invocation, witness.continuation_a, witness.continuation_b,
        ),
    )


def _control(budget):
    return None if budget is None else ExplorationControl(budget=budget)


def assert_same(subject, test, max_executions=None, budget=None, **harness_kwargs):
    """State and replay agree on *test*; returns the by-state stats."""
    want_control, got_control = _control(budget), _control(budget)
    with TestHarness(subject, **harness_kwargs) as harness:
        want = _replay(harness, test, max_executions, want_control)
        got = _by_state(harness, test, max_executions, got_control)
    assert _spec(got[0]) == _spec(want[0])
    got_stats, want_stats = got[1], want[1]
    assert got_stats == want_stats  # every count but runs
    assert (got_stats.stop_reason, got_stats.complete) == (
        want_stats.stop_reason, want_stats.complete,
    )
    # The frontier a checkpoint would save, and the DFS's execution count.
    assert got[2].snapshot() == want[2].snapshot()
    if budget is not None:
        assert (got_control.meter.executions, got_control.meter.decisions) == (
            want_control.meter.executions, want_control.meter.decisions,
        )
    assert got_stats.runs <= got_stats.executions
    return got_stats


def _subject(entry, version):
    return SystemUnderTest(entry.factory(version), entry.name)


# -- the registry --------------------------------------------------------------

#: CancellationTokenSource's serial runs choose (14 940 executions for a
#: 3×3 test, seconds of replay): one seed of it, three of the rest.
SAMPLED = [
    (entry.name, version, seed)
    for entry in REGISTRY
    for version in VERSIONS
    for seed in ((1,) if entry.name == "CancellationTokenSource" else (1, 2, 3))
]


@pytest.mark.parametrize("name,version,seed", SAMPLED)
def test_a_sampled_3x3_test(name, version, seed):
    entry = get_class(name)
    (test,) = sample_tests(entry.invocations, 3, 3, 1, seed=seed, init=entry.init)
    stats = assert_same(_subject(entry, version), test)
    assert stats.mode == "state"
    if stats.executions > 100:  # a test that does not get stuck early merges
        assert stats.runs < stats.executions


CURATED = [
    (entry.name, version, cause.tag)
    for entry in REGISTRY
    for cause in entry.causes
    if cause.witness_test is not None
    for version in cause.versions
]


@pytest.mark.parametrize("name,version,tag", CURATED)
def test_a_curated_cause_test(name, version, tag):
    entry = get_class(name)
    (cause,) = [c for c in entry.causes if c.tag == tag]
    assert assert_same(_subject(entry, version), cause.witness_test).mode == "state"


def _perfbench_tests() -> dict[str, str]:
    """perfbench's pinned queue tests, by name."""
    path = os.path.join(ROOT, "perfbench")
    if not os.path.exists(os.path.join(path, "workloads.py")):
        pytest.skip("perfbench/ not in this checkout")
    sys.path.insert(0, path)
    try:
        return importlib.import_module("workloads").TESTS
    finally:
        sys.path.remove(path)


@pytest.mark.parametrize("name", ["3col-5op", "3col-4op", "2x2", "2x3"])
def test_a_perfbench_test(name):
    test = parse_test(_perfbench_tests()[name])
    assert_same(_subject(get_class("ConcurrentQueue"), "beta"), test)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    entry=st.sampled_from(REGISTRY),
    version=st.sampled_from(VERSIONS),
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    seed=st.integers(0, 2**20),
    final=st.booleans(),
)
def test_registry_tests_agree(entry, version, shape, seed, final):
    rows, cols = shape
    finals = (entry.invocations[seed % len(entry.invocations)],) if final else ()
    (test,) = sample_tests(
        entry.invocations, rows, cols, 1, seed=seed, init=entry.init, final=finals
    )
    assert_same(_subject(entry, version), test)


# -- where a cap or a budget stops ------------------------------------------------


QUEUE = _subject(get_class("ConcurrentQueue"), "beta")


@pytest.mark.parametrize("cap", [1, 7, 100, 1800])
def test_an_execution_cap_stops_at_the_same_history(cap):
    stats = assert_same(QUEUE, QUEUE_3X3, max_executions=cap)
    assert stats.executions == min(cap, 1680)
    assert stats.complete == (cap >= 1680)


@pytest.mark.parametrize(
    "budget",
    [ExplorationBudget(max_executions=500), ExplorationBudget(max_decisions=3001)],
    ids=["executions", "decisions"],
)
def test_a_budget_stops_at_the_same_history(budget):
    stats = assert_same(QUEUE, QUEUE_3X3, budget=budget)
    assert not stats.complete and stats.runs < stats.executions


# -- refusals: what the walk cannot key runs as replay -------------------------------


class _Box:
    """A value object: equal by content, never interned as a response."""

    def __init__(self, value=None):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Box) and other.value == self.value

    def __hash__(self):
        return hash(self.value)


class HoldsALambda:
    """Its state includes a closure the walk cannot see into."""

    def __init__(self, rt):
        self._cell = rt.volatile(0)
        self._read = lambda: self._cell.get()

    def bump(self):
        self._cell.set(self._read() + 1)
        return "ok"

    def read(self):
        return self._read()


class HoldsASet:
    """Its state is a set of objects: no order is a function of it."""

    def __init__(self, rt):
        self._cell = rt.volatile(0)
        self._members = {_Box(1), _Box(2)}

    def bump(self):
        self._cell.set(self._cell.get() + 1)
        return "ok"

    def read(self):
        return self._cell.get()


class ReturnsAnObject:
    """Its responses are objects: the event table does not intern them."""

    def __init__(self, rt):
        self._cell = rt.volatile(0)

    def bump(self):
        self._cell.set(self._cell.get() + 1)
        return "ok"

    def read(self):
        return _Box(self._cell.get())


REFUSING = [
    (HoldsALambda, "replay: a closure"),
    (HoldsASet, "replay: a set is stored in the state"),
    (ReturnsAnObject, "replay: a response is not a plain value"),
]


@pytest.mark.parametrize("cls,mode", REFUSING, ids=[c.__name__ for c, _ in REFUSING])
def test_a_refused_walk_runs_as_replay(cls, mode):
    bump, read = Invocation("bump"), Invocation("read")
    test = FiniteTest.of([[bump, read], [bump, read], [read, bump]])
    stats = assert_same(SystemUnderTest(cls, cls.__name__), test)
    assert stats.mode.startswith(mode)
    assert stats.runs == stats.executions == 90


def test_the_same_subject_without_the_set_merges():
    class Plain(HoldsASet):
        def __init__(self, rt):
            self._cell = rt.volatile(0)

    bump, read = Invocation("bump"), Invocation("read")
    test = FiniteTest.of([[bump, read], [bump, read], [read, bump]])
    stats = assert_same(SystemUnderTest(Plain, "plain"), test)
    assert stats.mode == "state" and stats.runs < stats.executions == 90


# -- what replay would not reproduce is explored again ---------------------------


class Uneven:
    """``first`` costs one step before ``second`` ran and twenty after:
    the two orders of ``first`` and ``second`` reach one state with
    different step counts."""

    def __init__(self, rt):
        self._flag = rt.volatile(0)

    def first(self):
        if self._flag.get():
            for _ in range(20):
                self._flag.get()
        return "ok"

    def second(self):
        self._flag.set(1)
        return "ok"

    def burn(self):
        for _ in range(10):
            self._flag.get()
        return "ok"


def test_a_max_steps_cut_lands_where_replay_puts_it():
    first, second, burn = Invocation("first"), Invocation("second"), Invocation("burn")
    test = FiniteTest.of([[first], [second], [burn, burn]])
    stats = assert_same(SystemUnderTest(Uneven, "uneven"), test, max_steps=40)
    # Some orders fit in 40 steps, the costly ones are cut as livelocks ...
    assert 0 < stats.stuck_histories < stats.histories
    # ... and the node both orders reach is reused only where it fits.
    assert stats.runs < stats.executions


class Wedging:
    """``spin`` never reaches a scheduling point again."""

    def __init__(self, rt):
        self._cell = rt.volatile(0)

    def spin(self):
        self._cell.get()
        while True:
            pass

    def ping(self):
        return "pong"


def test_a_divergent_subtree_is_run_again():
    ping, spin = Invocation("ping"), Invocation("spin")
    test = FiniteTest.of([[ping], [ping], [spin]])
    watchdog = WatchdogConfig(time_limit=0.1, poll_interval=0.01, abandon_timeout=0.3)
    started = time.monotonic()
    stats = assert_same(SystemUnderTest(Wedging, "wedging"), test, watchdog=watchdog)
    assert time.monotonic() - started < 30.0
    assert stats.divergent == stats.executions == 5
    assert stats.runs == stats.executions


# -- checkpoints ----------------------------------------------------------------------


FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "checkpoints", "phase1",
    "check.json",
)


def test_a_replay_checkpoint_resumes_by_state_to_the_same_result():
    """``fixtures/checkpoints/phase1/check.json`` is a check of the queue
    test ``Enqueue(1); TryDequeue | Enqueue(2); TryDequeue | TryDequeue;
    Enqueue(3)`` (beta; phase 2 random, 20 schedules, seed 1) stopped by a
    40-execution budget in phase 1, written by a build that replayed every
    serial execution and counted no runs."""
    test, config, resume = parse_check_state(load_checkpoint(FIXTURE))
    assert resume.phase == "phase1" and resume.phase1.executions == 40
    assert resume.phase1.runs == 40 and resume.phase1.mode == "replay"
    resume.budget_snapshot = None
    config = replace(config, budget=None)
    resumed = check(QUEUE, test, config, resume=resume)
    whole = check(QUEUE, test, config)
    assert resumed.verdict == whole.verdict == "PASS"
    assert resumed.phase1 == whole.phase1
    assert resumed.phase1.executions == 90 and resumed.phase1.mode == "state"
    assert whole.phase1.runs < resumed.phase1.runs < resumed.phase1.executions
    assert {h.tokens() for h in resumed.observations} == {
        h.tokens() for h in whole.observations
    }
    assert resumed.phase2_executions == whole.phase2_executions


def test_runs_round_trip_and_a_missing_count_reads_as_executions():
    stats = Phase1Stats(executions=9, histories=8, runs=3, mode="state")
    assert Phase1Stats.from_dict(stats.to_dict()).runs == 3
    old = {"executions": 9, "histories": 8, "stuck_histories": 1, "divergent": 0}
    assert (Phase1Stats.from_dict(old).runs, Phase1Stats.from_dict(old).mode) == (
        9, "replay",
    )
