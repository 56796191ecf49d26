"""The Table 2 campaign driver."""

from __future__ import annotations

from repro.core import CheckConfig
import pytest

from repro.cli import main
from repro.core.campaign import (
    CampaignRow,
    TestSummary,
    campaign_row,
    campaign_verdict,
    parse_campaign_state,
    render_table2,
    row_from_summaries,
    run_class_campaign,
    verify_causes,
)
from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.structures import get_class

FAST = CheckConfig(
    phase2_strategy="random", phase2_executions=60, max_serial_executions=800
)


class TestRunClassCampaign:
    def test_row_statistics_populated(self, scheduler):
        entry = get_class("Lazy")
        row, summaries = run_class_campaign(
            entry, "beta", samples=3, rows=2, cols=2, seed=5,
            config=FAST, scheduler=scheduler,
        )
        assert row.class_name == "Lazy"
        assert row.version == "beta"
        assert row.tests_run == 3
        assert row.tests_passed + row.tests_failed == 3
        assert sorted(summaries) == [0, 1, 2]
        assert row.histories_max >= row.histories_avg > 0
        assert row.phase1_max_s >= row.phase1_avg_s > 0

    def test_pre_lazy_fails_some_tests(self, scheduler):
        entry = get_class("Lazy")
        row, _ = run_class_campaign(
            entry, "pre", samples=3, rows=2, cols=2, seed=5,
            config=FAST, scheduler=scheduler,
        )
        assert row.tests_failed > 0
        assert row.fail_avg_s > 0

    def test_stuck_tests_counted(self, scheduler):
        entry = get_class("SemaphoreSlim")
        row, _ = run_class_campaign(
            entry, "beta", samples=4, rows=2, cols=2, seed=2,
            config=FAST, scheduler=scheduler,
        )
        # Wait-heavy samples exist: some test's phase 1 saw stuck histories.
        assert row.stuck_tests >= 0  # statistic present
        assert row.tests_run == 4


class TestVerifyCauses:
    def test_pre_causes_found_with_dimensions(self, scheduler):
        entry = get_class("CountdownEvent")
        found, dimensions = verify_causes(entry, "pre", scheduler=scheduler)
        assert found == ("C",)
        assert dimensions["C"] == entry.causes[0].witness_test.dimension

    def test_beta_causes_empty_for_fixed_class(self, scheduler):
        entry = get_class("CountdownEvent")
        found, dimensions = verify_causes(entry, "beta", scheduler=scheduler)
        assert found == ()
        assert dimensions == {}

    def test_intentional_causes_found_in_beta(self, scheduler):
        entry = get_class("ConcurrentBag")
        found, _ = verify_causes(entry, "beta", scheduler=scheduler)
        assert found == ("H",)


class TestCampaignRow:
    def test_combines_campaign_and_causes(self, scheduler):
        entry = get_class("Barrier")
        row = campaign_row(
            entry, "beta", samples=2, rows=2, cols=2, seed=3,
            config=FAST, scheduler=scheduler,
        )
        assert "L" in row.causes_found
        assert row.min_dimensions["L"] == (1, 2)


class TestRendering:
    def test_render_table2_format(self):
        rows = [
            CampaignRow(
                class_name="Widget",
                version="pre",
                methods=5,
                tests_run=4,
                tests_passed=2,
                tests_failed=2,
                causes_found=("A", "B"),
                min_dimensions={"A": (2, 2), "B": (3, 2)},
                histories_avg=100.0,
                histories_max=200,
                phase1_avg_s=0.1,
                phase1_max_s=0.2,
                fail_avg_s=0.05,
                pass_avg_s=0.3,
                preemption_bound=2,
            ),
            CampaignRow(
                class_name="Gadget", version="beta", methods=3,
                preemption_bound=None,
            ),
        ]
        text = render_table2(rows)
        assert "Widget" in text and "Gadget" in text
        assert "A,B" in text
        assert "2x2" in text and "3x2" in text
        lines = text.splitlines()
        assert lines[0].startswith("Class")
        assert lines[-1].strip().endswith("-")  # unbounded PB renders as '-'


class TestExhaustedTests:
    """A test whose check ended EXHAUSTED has no verdict: it is neither a
    pass nor a fail, and the row says so under the table."""

    def _row(self, *verdicts):
        summaries = [
            TestSummary(verdict, histories=10, stuck_histories=0,
                        phase1_seconds=0.1, total_seconds=0.2)
            for verdict in verdicts
        ]
        return row_from_summaries(
            get_class("Lazy"), "beta", summaries, CheckConfig()
        )

    def test_an_exhausted_test_is_not_a_pass(self):
        row = self._row("PASS", "EXHAUSTED")
        assert (row.tests_run, row.tests_passed, row.tests_exhausted) == (2, 1, 1)
        assert campaign_verdict([row]) == "EXHAUSTED"
        assert campaign_verdict([row, self._row("FAIL")]) == "FAIL"

    def test_the_table_keeps_its_columns_and_adds_a_note(self):
        lines = render_table2([self._row("EXHAUSTED", "EXHAUSTED")]).splitlines()
        assert len(lines[2].split()) == 15
        assert lines[3].startswith("note: 2 test(s) EXHAUSTED")
        assert "note:" not in render_table2([self._row("PASS")])


class TestCampaignCheckpoint:
    def test_a_list_of_summaries_is_a_checkpoint_error(self, tmp_path, capsys):
        """Summaries are keyed by test index; the positional list form of
        older checkpoints is refused by name, not resumed."""
        path = str(tmp_path / "campaign.json")
        save_checkpoint(path, {
            "kind": "campaign",
            "plan": [["Lazy", "beta"]],
            "params": {"samples": 2, "rows": 2, "cols": 2, "schedules": 10,
                       "seed": 0},
            "finished_rows": [],
            "current": {"cls": "Lazy", "version": "beta", "summaries": [
                {"verdict": "PASS", "histories": 2, "stuck_histories": 0,
                 "phase1_seconds": 0.0, "total_seconds": 0.0},
            ]},
        })
        with pytest.raises(CheckpointError, match="'summaries'"):
            parse_campaign_state(load_checkpoint(path))
        assert main(["resume", path]) == 64
        assert "'summaries'" in capsys.readouterr().err
