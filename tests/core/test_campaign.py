"""The Table 2 campaign driver."""

from __future__ import annotations

from repro.core import CheckConfig
from repro.core.campaign import (
    CampaignRow,
    campaign_row,
    render_table2,
    run_class_campaign,
    verify_causes,
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
