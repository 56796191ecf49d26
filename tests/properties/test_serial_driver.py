"""Differential suite: the serial driver against engine-hosted serial mode.

Phase 1 runs on :class:`repro.runtime.core.SerialDriver` — every operation a
plain call, no logical-thread stacks.  An engine's
``execute(bodies, strategy, serial=True)`` is the reference it must match
execution for execution: the ordered ``Decision`` trace (what phase-1
checkpoints and ``--max-decisions`` rest on), the events and their
segments, the step count, the stuck classification of Definitions 2/3,
and therefore the synthesized ``ObservationSet``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.core.spec import ObservationSet
from repro.core.testcase import sample_tests
from repro.runtime import DFSStrategy, coopc, make_scheduler
from repro.structures.spin_primitives import SpinningCounter
from tests.properties.test_engine_equivalence import ENGINES, ENTRIES, VERSIONS, _trace

# The subjects defined below suspend; the coop oracle must compile them.
coopc.register_module(__name__)


def _row(outcome):
    return (
        _trace(outcome),
        tuple(outcome.events),
        tuple(outcome.event_segments),
        outcome.steps,
        outcome.status,
        outcome.stuck_kind,
        outcome.pending_threads,
    )


def _spec(observations):
    return (
        [h.tokens() for h in observations.full],
        [h.tokens() for h in observations.stuck],
        observations.is_deterministic,
    )


def _driver(harness, test):
    """(rows, spec, stats) of phase 1 as the harness runs it."""
    strategy = DFSStrategy(preemption_bound=None)
    rows = [_row(outcome) for outcome in harness.explore_serial(test, strategy)]
    observations, stats = harness.run_serial(test)
    return rows, _spec(observations), stats


def _oracle(harness, test):
    """The same enumeration hosted on the harness's engine."""
    strategy = DFSStrategy(preemption_bound=None)
    observations = ObservationSet(test.n_threads)
    rows = []
    for outcome in harness.scheduler.explore(
        lambda: harness._bodies(test), strategy, serial=True
    ):
        rows.append(_row(outcome))
        observations.add(harness.history_from_outcome(outcome, test).to_serial())
    return rows, _spec(observations)


def _assert_agree(subject, test, engine, **harness_kwargs):
    with TestHarness(subject, engine=engine, **harness_kwargs) as harness:
        driver_rows, driver_spec, stats = _driver(harness, test)
        oracle_rows, oracle_spec = _oracle(harness, test)
    assert len(driver_rows) == len(oracle_rows)
    for index, (got, want) in enumerate(zip(driver_rows, oracle_rows)):
        assert got == want, f"execution {index} of {test} diverged"
    assert driver_spec == oracle_spec
    assert stats.executions == len(oracle_rows)
    return driver_rows, stats


def _sampled(entry, seed):
    """2×3 and 3×2 tests over the entry's alphabet, with init and a final."""
    invocations = list(entry.invocations)
    final = [random.Random(seed).choice(invocations)]
    return [
        test
        for rows, cols in ((2, 3), (3, 2))
        for test in sample_tests(
            invocations, rows, cols, 2, seed=seed, init=entry.init, final=final
        )
    ]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_registry_sweep(name, version, engine):
    entry = ENTRIES[name]
    subject = SystemUnderTest(entry.factory(version), f"{name}({version})")
    for test in _sampled(entry, seed=len(name)):
        _assert_agree(subject, test, engine)


class _TimedLock:
    """``Hold`` keeps the lock; ``Timed`` then reaches ``choose`` in an op."""

    def __init__(self, rt):
        self._lock = rt.lock("held")

    def Hold(self):
        self._lock.acquire()

    def Timed(self):
        return self._lock.acquire_timed()


class _Churn:
    """``churn`` loops through scheduling points forever (livelock)."""

    def __init__(self, rt):
        self._cell = rt.volatile(0)

    def churn(self):
        while True:
            self._cell.set(self._cell.get() + 1)

    def ping(self):
        return "pong"


def _inv(method, *args):
    return Invocation(method, args)


@pytest.mark.parametrize("engine", ENGINES)
class TestRows:
    def test_blocking_op_is_a_stuck_serial_history(self, engine):
        entry = ENTRIES["ManualResetEvent"]
        subject = SystemUnderTest(entry.factory("beta"), "mre")
        test = FiniteTest.of([[_inv("Wait")], [_inv("Set")]])
        rows, stats = _assert_agree(subject, test, engine)
        assert ("stuck", "deadlock") in {(row[4], row[5]) for row in rows}
        assert stats.stuck_histories >= 1

    def test_choose_inside_an_operation(self, engine):
        subject = SystemUnderTest(_TimedLock, "timed")
        test = FiniteTest.of([[_inv("Hold"), _inv("Timed")], [_inv("Timed")]])
        rows, stats = _assert_agree(subject, test, engine)
        kinds = {d[0] for row in rows for d in row[0]}
        assert "value" in kinds  # the timeout decision was enumerated
        assert stats.stuck_histories >= 1  # ... and so was waiting forever

    def test_queue_pre_timed_acquire(self, engine):
        entry = ENTRIES["ConcurrentQueue"]
        subject = SystemUnderTest(entry.factory("pre"), "queue(pre)")
        test = FiniteTest.of(
            [[_inv("Enqueue", 1), _inv("TryDequeue")], [_inv("TryDequeue")]],
            init=entry.init,
        )
        _assert_agree(subject, test, engine)

    def test_spin_wait_sticks_at_once(self, engine):
        subject = SystemUnderTest(SpinningCounter, "spin")
        test = FiniteTest.of([[_inv("dec")], [_inv("inc")]], final=[_inv("get")])
        rows, _ = _assert_agree(subject, test, engine)
        assert ("stuck", "livelock") in {(row[4], row[5]) for row in rows}

    def test_max_steps_livelock(self, engine):
        subject = SystemUnderTest(_Churn, "churn")
        test = FiniteTest.of([[_inv("churn")], [_inv("ping")]])
        rows, _ = _assert_agree(subject, test, engine, max_steps=60)
        assert any(row[5] == "livelock" and row[3] > 60 for row in rows)


class _FailingDFS(DFSStrategy):
    """Unbounded DFS whose *n*-th consulted decision raises."""

    def __init__(self, fail_at):
        super().__init__(preemption_bound=None)
        self._fail_at = fail_at
        self._calls = 0

    def decide(self, kind, options, running, free):
        self._calls += 1
        if self._calls == self._fail_at:
            raise RuntimeError(f"strategy failed (running={running})")
        return super().decide(kind, options, running, free)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "fail_at,running",
    [(1, None), (2, 0)],
    ids=["initial-pick", "completion-pick"],
)
def test_error_with_no_body_running_leaves_run_serial(engine, fail_at, running):
    """The one error rule: nobody to raise it in, so it leaves the call —
    from the driver exactly as from the engine — and both stay usable."""
    entry = ENTRIES["ConcurrentQueue"]
    subject = SystemUnderTest(entry.factory("beta"), "queue")
    test = FiniteTest.of([[_inv("Enqueue", 1)], [_inv("Enqueue", 2)], [_inv("TryDequeue")]])
    with TestHarness(subject, engine=engine) as harness:
        with pytest.raises(RuntimeError, match=f"running={running}"):
            harness.run_serial(test, strategy=_FailingDFS(fail_at))
        with pytest.raises(RuntimeError, match=f"running={running}"):
            harness.scheduler.execute(
                harness._bodies(test), _FailingDFS(fail_at), serial=True
            )
        observations, stats = harness.run_serial(test)
        assert stats.executions == 6 and stats.complete
        assert _spec(observations) == _oracle(harness, test)[1]


def test_engine_name_is_not_consulted_by_the_driver():
    """One driver serves both engines: same rows whatever hosts phase 2."""
    entry = ENTRIES["SemaphoreSlim"]
    subject = SystemUnderTest(entry.factory("beta"), "sem")
    test = _sampled(entry, seed=3)[0]
    rows = {}
    for engine in ENGINES:
        scheduler = make_scheduler(engine)
        try:
            with TestHarness(subject, scheduler=scheduler) as harness:
                rows[engine] = _driver(harness, test)[0]
        finally:
            scheduler.shutdown()
    assert rows["baton"] == rows["coop"]
