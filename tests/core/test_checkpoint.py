"""Budgets, EXHAUSTED verdicts, atomic files, checkpoint/resume."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    ObservationFileError,
    SystemUnderTest,
    check,
    load_observations,
    save_observations,
)
from repro.core.budget import BudgetMeter, ExplorationBudget, ExplorationControl
from repro.core.campaign import run_class_campaign, summary_from_outcome
from repro.core.checkpoint import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
    parse_check_state,
    save_checkpoint,
)
from repro.core.checkpoint import test_from_dict as checkpoint_test_from_dict
from repro.core.checkpoint import test_to_dict as checkpoint_test_to_dict
from repro.core.fileio import atomic_write_text
from repro.runtime import ExecutionOutcome
from repro.structures.counters import Counter
from repro.structures.registry import get_class

INC = Invocation("inc")
GET = Invocation("get")
TEST = FiniteTest.of([[INC, GET], [INC]])


def _outcome(decisions=0):
    return ExecutionOutcome(status="complete", decisions=[None] * decisions)


class TestExplorationBudget:
    def test_unbounded_by_default(self):
        assert ExplorationBudget().unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": -1},
            {"max_executions": -1},
            {"max_decisions": -5},
        ],
    )
    def test_negative_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExplorationBudget(**kwargs)

    def test_dict_roundtrip(self):
        budget = ExplorationBudget(deadline_seconds=1.5, max_executions=10)
        assert ExplorationBudget.from_dict(budget.to_dict()) == budget


class TestBudgetMeter:
    def test_executions_bound_trips(self):
        meter = BudgetMeter(ExplorationBudget(max_executions=2))
        meter.start()
        assert meter.exceeded() is None
        meter.note(_outcome())
        meter.note(_outcome())
        assert meter.exceeded() == "executions"

    def test_decisions_bound_trips(self):
        meter = BudgetMeter(ExplorationBudget(max_decisions=5))
        meter.note(_outcome(decisions=6))
        assert meter.exceeded() == "decisions"

    def test_deadline_trips_with_carried_elapsed(self):
        meter = BudgetMeter(ExplorationBudget(deadline_seconds=10.0), elapsed=11.0)
        assert meter.exceeded() == "deadline"

    def test_snapshot_roundtrip_carries_consumption(self):
        meter = BudgetMeter(ExplorationBudget(max_executions=10))
        meter.note(_outcome(decisions=3))
        restored = BudgetMeter.from_snapshot(meter.snapshot())
        assert restored.executions == 1
        assert restored.decisions == 3
        assert restored.budget == meter.budget


class TestExplorationControl:
    def test_interrupt_takes_precedence_over_budget(self):
        control = ExplorationControl(
            budget=ExplorationBudget(max_executions=0), stop=lambda: True
        )
        assert control.halt_reason() == "interrupted"

    def test_budget_reason_when_not_stopped(self):
        control = ExplorationControl(
            budget=ExplorationBudget(max_executions=0), stop=lambda: False
        )
        assert control.halt_reason() == "executions"

    def test_no_budget_no_stop_never_halts(self):
        assert ExplorationControl().halt_reason() is None


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "second"

    def test_no_temp_droppings(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "data")
        assert os.listdir(tmp_path) == ["out.txt"]


class TestObservationFileSafety:
    def test_save_load_roundtrip(self, tmp_path, scheduler):
        path = str(tmp_path / "obs.xml")
        with_harness = check(
            SystemUnderTest(Counter, "c"), TEST, scheduler=scheduler
        )
        save_observations(with_harness.observations, path)
        loaded = load_observations(path)
        assert len(loaded) == len(with_harness.observations)

    def test_corrupt_file_raises_observation_error(self, tmp_path):
        path = str(tmp_path / "obs.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("<observationset><histo")  # torn write
        with pytest.raises(ObservationFileError):
            load_observations(path)

    def test_missing_file_raises_observation_error(self, tmp_path):
        with pytest.raises(ObservationFileError):
            load_observations(str(tmp_path / "nope.xml"))


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, {"kind": "check", "phase": "phase1"})
        document = load_checkpoint(path)
        assert document["kind"] == "check"

    def test_corrupt_json_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "lineup-chec')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, {"kind": "mystery"})
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_test_dict_roundtrip(self):
        test = FiniteTest.of(
            [[Invocation("Put", ("k", 1))], [Invocation("Get", ("k",))]],
            init=[Invocation("Reset")],
        )
        assert checkpoint_test_from_dict(checkpoint_test_to_dict(test)) == test

    def test_checkpointer_rate_limits(self, tmp_path):
        path = str(tmp_path / "ck.json")
        cp = Checkpointer(path, every_executions=3, every_seconds=3600.0)
        for _ in range(2):
            cp.tick(lambda: {"kind": "check"})
        assert cp.saves == 0
        assert cp.tick(lambda: {"kind": "check"})
        assert cp.saves == 1

    def test_checkpointer_merges_extra(self, tmp_path):
        path = str(tmp_path / "ck.json")
        cp = Checkpointer(path, extra={"subject": {"cls": "X", "version": "beta"}})
        cp.save({"kind": "check"})
        assert load_checkpoint(path)["subject"] == {"cls": "X", "version": "beta"}


class TestExhaustedVerdicts:
    def test_execution_budget_trips_to_exhausted(self, scheduler):
        cfg = CheckConfig(budget=ExplorationBudget(max_executions=10))
        result = check(SystemUnderTest(Counter, "c"), TEST, cfg, scheduler=scheduler)
        assert result.exhausted
        assert result.verdict == "EXHAUSTED"
        assert result.exhausted_reason == "executions"
        assert not result.phase2_complete

    def test_phase1_budget_trip_skips_phase2(self, scheduler):
        # Phase 2 against a partial spec could report unsound FAILs, so a
        # budget trip during phase 1 must end the check right there.
        cfg = CheckConfig(budget=ExplorationBudget(max_executions=1))
        result = check(SystemUnderTest(Counter, "c"), TEST, cfg, scheduler=scheduler)
        assert result.exhausted
        assert result.phase2_executions == 0

    def test_fail_beats_exhausted(self, scheduler):
        from repro.structures.counters import BuggyCounter1

        reference = check(
            SystemUnderTest(BuggyCounter1, "c"), TEST, scheduler=scheduler
        )
        assert reference.failed
        # Give exactly enough budget to reach the violation; the verdict
        # stays FAIL (a proof) even though the budget then trips.
        executions = reference.phase1.executions + reference.phase2_executions
        cfg = CheckConfig(budget=ExplorationBudget(max_executions=executions))
        result = check(
            SystemUnderTest(BuggyCounter1, "c"), TEST, cfg, scheduler=scheduler
        )
        assert result.failed

    def test_interrupt_stops_check(self, scheduler):
        calls = {"n": 0}

        def stop_after_three():
            calls["n"] += 1
            return calls["n"] > 3

        control = ExplorationControl(stop=stop_after_three)
        result = check(
            SystemUnderTest(Counter, "c"), TEST, scheduler=scheduler, control=control
        )
        assert result.exhausted
        assert result.exhausted_reason == "interrupted"

    def test_legacy_caps_still_truncate_silently(self, scheduler):
        # The max_* knobs keep their historical semantics: no EXHAUSTED,
        # just the completeness flags (tests rely on this).
        cfg = CheckConfig(max_concurrent_executions=1)
        result = check(SystemUnderTest(Counter, "c"), TEST, cfg, scheduler=scheduler)
        assert result.verdict == "PASS"
        assert not result.phase2_complete


class TestCheckResume:
    def _reference(self, scheduler):
        return check(SystemUnderTest(Counter, "c"), TEST, scheduler=scheduler)

    def _interrupt_and_resume(self, scheduler, tmp_path, max_executions):
        path = str(tmp_path / "ck.json")
        cfg = CheckConfig(budget=ExplorationBudget(max_executions=max_executions))
        interrupted = check(
            SystemUnderTest(Counter, "c"),
            TEST,
            cfg,
            scheduler=scheduler,
            checkpointer=Checkpointer(path, every_executions=1),
        )
        assert interrupted.exhausted
        test, saved_config, resume = parse_check_state(load_checkpoint(path))
        assert test == TEST
        # Resume without the budget so the run completes this time.
        resumed = check(
            SystemUnderTest(Counter, "c"),
            test,
            replace(saved_config, budget=None),
            scheduler=scheduler,
            resume=resume,
        )
        return interrupted, resumed

    def test_resume_after_phase1_trip_matches_reference(self, scheduler, tmp_path):
        reference = self._reference(scheduler)
        interrupted, resumed = self._interrupt_and_resume(
            scheduler, tmp_path, max_executions=1
        )
        assert interrupted.phase2_executions == 0
        assert resumed.verdict == reference.verdict
        assert resumed.phase1.executions == reference.phase1.executions
        assert resumed.phase1.histories == reference.phase1.histories
        assert resumed.phase2_executions == reference.phase2_executions
        assert resumed.phase2_full == reference.phase2_full
        assert resumed.phase2_stuck == reference.phase2_stuck

    def test_resume_after_phase2_trip_matches_reference(self, scheduler, tmp_path):
        reference = self._reference(scheduler)
        phase2_trip = reference.phase1.executions + 5
        interrupted, resumed = self._interrupt_and_resume(
            scheduler, tmp_path, max_executions=phase2_trip
        )
        assert interrupted.phase2_executions > 0
        assert resumed.verdict == reference.verdict
        assert resumed.phase1.histories == reference.phase1.histories
        assert resumed.phase2_executions == reference.phase2_executions
        assert resumed.phase2_full == reference.phase2_full

    def test_resumed_budget_is_total_across_sessions(self, scheduler, tmp_path):
        path = str(tmp_path / "ck.json")
        cfg = CheckConfig(budget=ExplorationBudget(max_executions=4))
        check(
            SystemUnderTest(Counter, "c"),
            TEST,
            cfg,
            scheduler=scheduler,
            checkpointer=Checkpointer(path, every_executions=1),
        )
        test, saved_config, resume = parse_check_state(load_checkpoint(path))
        # Same budget on resume: the meter carries over, so the resumed
        # session trips immediately instead of getting 4 fresh executions.
        resumed = check(
            SystemUnderTest(Counter, "c"),
            test,
            saved_config,
            scheduler=scheduler,
            resume=resume,
        )
        assert resumed.exhausted


class TestCampaignResume:
    def test_interrupted_campaign_resumes_to_same_row(self, scheduler):
        entry = get_class("Lazy")
        kwargs = dict(samples=2, rows=2, cols=2, seed=3, scheduler=scheduler)
        config = CheckConfig(
            phase2_strategy="random", phase2_executions=40, seed=3
        )
        reference, _ = run_class_campaign(entry, "beta", config=config, **kwargs)
        assert reference.stop_reason is None
        assert reference.tests_run == 2

        seen: dict = {}
        control = ExplorationControl(budget=ExplorationBudget(max_executions=60))
        interrupted, _ = run_class_campaign(
            entry, "beta", config=config, control=control,
            on_outcome=lambda outcome, retries: seen.__setitem__(
                outcome.index, summary_from_outcome(outcome)
            ),
            **kwargs,
        )
        assert interrupted.stop_reason == "executions"
        assert interrupted.tests_run < reference.tests_run

        resumed, _ = run_class_campaign(
            entry, "beta", config=config, completed=seen, **kwargs
        )
        assert resumed.stop_reason is None
        assert resumed.tests_run == reference.tests_run
        assert resumed.tests_passed == reference.tests_passed
        assert resumed.tests_failed == reference.tests_failed
        assert resumed.histories_avg == pytest.approx(reference.histories_avg)
        assert resumed.histories_max == reference.histories_max
