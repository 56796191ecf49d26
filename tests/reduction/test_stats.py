"""Reduction statistics: CheckResult fields, reports, checkpoints, workers."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core import (
    CheckConfig,
    Checkpointer,
    FiniteTest,
    Invocation,
    SystemUnderTest,
    check,
)
from repro.core.budget import ExplorationBudget
from repro.core.campaign import TestSummary
from repro.core.checkpoint import load_checkpoint, parse_check_state
from repro.core.report import check_result_to_dict, render_check_result
from repro.structures.counters import Counter

INC = Invocation("inc")
GET = Invocation("get")
TEST = FiniteTest.of([[INC, GET], [INC]])


def run_check(scheduler, reduction, **kwargs):
    cfg = CheckConfig(reduction=reduction, **kwargs)
    return check(SystemUnderTest(Counter, "c"), TEST, cfg, scheduler=scheduler)


class TestResultFields:
    @pytest.mark.parametrize("reduction", ["none", "sleep", "dpor"])
    def test_counters_populated(self, scheduler, reduction):
        result = run_check(scheduler, reduction)
        assert result.reduction == reduction
        assert result.schedules_explored == result.phase2_executions > 0
        assert 0 < result.equivalence_classes <= result.schedules_explored
        if reduction == "none":
            assert result.schedules_pruned == 0
        else:
            assert result.schedules_pruned > 0

    def test_dpor_explores_fewer_same_classes(self, scheduler):
        baseline = run_check(scheduler, "none")
        reduced = run_check(scheduler, "dpor")
        assert reduced.verdict == baseline.verdict
        assert reduced.schedules_explored < baseline.schedules_explored

    def test_reduction_requires_dfs_family(self):
        cfg = CheckConfig(phase2_strategy="random", reduction="dpor")
        with pytest.raises(ValueError):
            cfg.make_phase2_strategy()


class TestReports:
    def test_text_report_shows_reduction_line(self, scheduler):
        result = run_check(scheduler, "dpor")
        text = render_check_result(result)
        assert "reduction: dpor" in text
        assert f"{result.schedules_explored} schedules explored" in text
        assert f"{result.equivalence_classes} equivalence classes" in text
        assert f"{result.schedules_pruned} pruned" in text

    def test_text_report_with_reduction_none(self, scheduler):
        result = run_check(scheduler, "none")
        assert "reduction: none" in render_check_result(result)

    def test_json_report_round_trips(self, scheduler):
        result = run_check(scheduler, "sleep")
        data = json.loads(json.dumps(check_result_to_dict(result)))
        assert data["reduction"] == {
            "mode": "sleep",
            "schedules_explored": result.schedules_explored,
            "equivalence_classes": result.equivalence_classes,
            "schedules_pruned": result.schedules_pruned,
        }
        assert data["verdict"] == result.verdict


class TestCheckpointSurvival:
    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    def test_stats_survive_phase2_resume(self, scheduler, tmp_path, reduction):
        reference = run_check(scheduler, reduction)
        path = str(tmp_path / "ck.json")
        budget = ExplorationBudget(
            max_executions=reference.phase1.executions + 3
        )
        interrupted = check(
            SystemUnderTest(Counter, "c"),
            TEST,
            CheckConfig(reduction=reduction, budget=budget),
            scheduler=scheduler,
            checkpointer=Checkpointer(path, every_executions=1),
        )
        assert interrupted.exhausted
        test, saved_config, resume = parse_check_state(load_checkpoint(path))
        assert saved_config.reduction == reduction
        resumed = check(
            SystemUnderTest(Counter, "c"),
            test,
            replace(saved_config, budget=None),
            scheduler=scheduler,
            resume=resume,
        )
        assert resumed.verdict == reference.verdict
        assert resumed.reduction == reference.reduction
        assert resumed.schedules_explored == reference.schedules_explored
        assert resumed.equivalence_classes == reference.equivalence_classes


class TestWorkerRoundTrip:
    def test_summary_round_trips_over_the_pipe(self, scheduler):
        # Isolated campaign workers ship TestSummary dicts over a pipe;
        # the reduction counters must survive the JSON round-trip.
        result = run_check(scheduler, "dpor")
        summary = TestSummary.from_result(result)
        assert summary.schedules_explored == result.schedules_explored
        restored = TestSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
        assert restored == summary
        assert restored.schedules_pruned == result.schedules_pruned

    def test_old_worker_dicts_default_to_zero(self):
        # A summary dict from a build without reduction stats still parses.
        legacy = {
            "verdict": "PASS",
            "histories": 3,
            "stuck_histories": 0,
            "phase1_seconds": 0.1,
            "total_seconds": 0.2,
        }
        summary = TestSummary.from_dict(legacy)
        assert summary.schedules_explored == 0
        assert summary.schedules_pruned == 0
