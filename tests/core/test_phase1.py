"""Phase 1 on the serial driver: crashes, resume, budgets, the watchdog.

The decision trace of a serial execution is what a phase-1 checkpoint (the
DFS stack) and ``--max-decisions`` accounting rest on; the driver keeps it
identical to the engine-hosted one (``tests/properties/test_serial_driver``),
and this file pins the user-visible consequences.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    SystemUnderTest,
    TestHarness,
    check,
)
from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.checkpoint import Checkpointer, load_checkpoint, parse_check_state
from repro.core.harness import HarnessError
from repro.runtime import ENGINES, WatchdogConfig
from repro.structures.registry import get_class

QUEUE = get_class("ConcurrentQueue")
#: The perfbench ``gate`` test: 12 serial executions of 4 decisions each,
#: then 3747 schedules.
GATE = FiniteTest.of(
    [
        [Invocation("Enqueue", (1,)), Invocation("TryDequeue")],
        [Invocation("Enqueue", (2,))],
        [Invocation("TryDequeue")],
    ]
)
UNBOUNDED = ExplorationBudget()


def _queue():
    return SystemUnderTest(QUEUE.factory("beta"), "queue")


class Pinger:
    def __init__(self, rt):
        self._cell = rt.volatile("pong")

    def ping(self):
        return self._cell.get()


class TestCrashes:
    def test_crash_on_a_later_event_identical_execution_is_raised(self):
        """Thread B has no operations, so both serial executions replay the
        same event stream; the second one crashes *outside* an operation
        (after its last return was recorded).  A crash is checked on every
        execution, not only on the first one with a given event stream."""
        test = FiniteTest.of([[Invocation("ping")], []])
        with TestHarness(SystemUnderTest(Pinger, "pinger")) as harness:
            driver = harness._serial
            returns = []

            def record_then_crash(event):
                type(driver).record_event(driver, event)
                if event.is_return:
                    returns.append(event)
                    if len(returns) == 2:
                        raise RuntimeError("crashed between operations")

            driver.record_event = record_then_crash
            with pytest.raises(HarnessError, match="crashed between operations"):
                harness.run_serial(test)
        assert returns[0] == returns[1]


class TestResumeAndBudget:
    def test_checkpoint_cut_mid_phase1_resumes_to_the_same_totals(self, tmp_path):
        reference_control = ExplorationControl(budget=UNBOUNDED)
        reference = check(_queue(), GATE, control=reference_control)

        path = str(tmp_path / "ck.json")
        cut = CheckConfig(budget=ExplorationBudget(max_executions=5))
        interrupted = check(
            _queue(), GATE, cut, checkpointer=Checkpointer(path, every_executions=1)
        )
        assert interrupted.exhausted and interrupted.phase2_executions == 0
        assert interrupted.phase1.executions == 5

        test, saved, resume = parse_check_state(load_checkpoint(path))
        assert resume.phase == "phase1"
        # Lift the bound but keep the meter's consumption across sessions.
        resume.budget_snapshot["budget"] = UNBOUNDED.to_dict()
        control = ExplorationControl(budget=UNBOUNDED)
        resumed = check(
            _queue(), test, replace(saved, budget=None),
            control=control, resume=resume,
        )
        assert resumed.verdict == reference.verdict == "PASS"
        assert resumed.phase1.executions == reference.phase1.executions == 12
        assert resumed.phase1.histories == reference.phase1.histories
        assert {h.tokens() for h in resumed.observations} == {
            h.tokens() for h in reference.observations
        }
        assert resumed.phase2_executions == reference.phase2_executions
        assert control.meter.executions == reference_control.meter.executions
        assert control.meter.decisions == reference_control.meter.decisions

    @pytest.mark.parametrize(
        "max_decisions,executions,decisions",
        [(1, 1, 4), (10, 3, 12), (25, 7, 28), (40, 10, 40)],
    )
    def test_max_decisions_trips_after_the_same_execution(
        self, max_decisions, executions, decisions
    ):
        """Pinned on the engine-hosted phase 1 this driver replaced."""
        control = ExplorationControl(
            budget=ExplorationBudget(max_decisions=max_decisions)
        )
        result = check(_queue(), GATE, control=control)
        assert result.exhausted and result.exhausted_reason == "decisions"
        assert result.phase1.executions == executions
        assert control.meter.decisions == decisions
        assert result.phase2_executions == 0


class Wedging:
    """``spin`` never reaches a scheduling point; ``nap`` blocks in C."""

    def __init__(self, rt):
        self._rt = rt

    def spin(self):
        x = 0
        while True:
            x += 1

    def nap(self):
        time.sleep(5)

    def ping(self):
        return "pong"


WATCHDOG = WatchdogConfig(time_limit=0.2, poll_interval=0.02, abandon_timeout=0.3)


def _assert_divergent_beside_healthy(harness, wedge):
    """Both serial orders of ``wedge | ping``: each execution diverges in
    *wedge*, and the one that ran ``ping`` first still observed it."""
    test = FiniteTest.of([[Invocation(wedge)], [Invocation("ping")]])
    started = time.monotonic()
    observations, stats = harness.run_serial(test)
    assert time.monotonic() - started < 10.0
    assert stats.executions == 2 and stats.divergent == 2
    # Divergent is classified stuck: the wedged call is the pending step.
    assert not observations.full and stats.stuck_histories == 2
    assert {str(h) for h in observations.stuck} == {
        f"<A:{wedge}() -> #> #",
        f"<B:ping() -> ok('pong'); A:{wedge}() -> #> #",
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_python_loop_in_a_serial_operation_is_divergent(engine):
    with TestHarness(
        SystemUnderTest(Wedging, "wedging"), watchdog=WATCHDOG, engine=engine
    ) as harness:
        _assert_divergent_beside_healthy(harness, "spin")


def test_sleep_wedge_is_abandoned_and_the_next_execution_unaffected():
    subject = SystemUnderTest(Wedging, "wedging")
    with TestHarness(subject, watchdog=WATCHDOG, engine="baton") as harness:
        _assert_divergent_beside_healthy(harness, "nap")
        # The driver is as usable as before the two abandoned hosts.
        observations, stats = harness.run_serial(
            FiniteTest.of([[Invocation("ping")], [Invocation("ping")]])
        )
        assert stats.executions == 2 and stats.divergent == 0
        assert len(observations.full) == 2
