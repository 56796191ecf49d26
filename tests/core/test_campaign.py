"""The Table 2 campaign driver."""

from __future__ import annotations

import os

from repro.core import CheckConfig, SystemUnderTest, check
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

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

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


#: ``campaign Lazy --versions pre --samples 4 --rows 2 --cols 2
#: --schedules 60 --seed 5``: a campaign of two FAILs and two PASSes.
LAZY_PLAN = [("Lazy", "pre")]
LAZY_PARAMS = {"samples": 4, "rows": 2, "cols": 2, "schedules": 60, "seed": 5}
LAZY_ARGV = [
    "campaign", "Lazy", "--versions", "pre", "--samples", "4", "--rows", "2",
    "--cols", "2", "--schedules", "60", "--seed", "5",
]
#: Its row's hist avg, hist max, fail, pass, crash, sched and pruned
#: columns, as the build that still digested every execution printed them.
LAZY_ROW = ("6.0", "6", "2", "2", "0", "124", "0")
GATE = "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue"


def _columns(row: CampaignRow) -> tuple:
    return (
        f"{row.histories_avg:.1f}", str(row.histories_max),
        str(row.tests_failed), str(row.tests_passed), str(row.tests_crashed),
        str(row.schedules_explored), str(row.schedules_pruned),
    )


def _no_digest(*_args):
    raise AssertionError("a campaign took an execution digest")


class TestNoDigestInACampaign:
    """A campaign prints no class count, so its checks take no digest;
    ``check`` still does, and reports the same classes."""

    def test_an_in_process_campaign_never_digests(self, monkeypatch):
        from repro.core.budget import ExplorationControl
        from repro.core.campaign import run_campaign_plan
        from repro.exec import InlineExecutor
        import repro.reduction

        monkeypatch.setattr(repro.reduction, "execution_fingerprint", _no_digest)
        config = CheckConfig(
            phase2_strategy="random", phase2_executions=60, seed=5,
            max_serial_executions=2000,
        )
        entry = get_class("Lazy")
        with pytest.raises(AssertionError, match="digest"):  # check digests
            check(SystemUnderTest(entry.factory("pre")), entry.causes[0].witness_test)
        with InlineExecutor() as executor:
            (row,), stop_reason, _ = run_campaign_plan(
                LAZY_PLAN, LAZY_PARAMS, config, executor,
                control=ExplorationControl(),
            )
        assert stop_reason is None
        assert _columns(row) == LAZY_ROW

    def test_an_isolated_campaign_never_digests(self, tmp_path):
        """The worker checks under the same patch: a forked worker starts
        with its coordinator's modules, so the script forks it."""
        import subprocess
        import sys

        script = (
            "import sys, threading\n"
            "import repro.reduction\n"
            "from repro.cli import main\n"
            "def no_digest(*args):\n"
            "    raise AssertionError('a campaign took an execution digest')\n"
            "repro.reduction.execution_fingerprint = no_digest\n"
            "assert threading.active_count() == 1\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = LAZY_ARGV + [
            "--isolate", "--workers", "1", "--start-method", "fork",
            "--report-dir", str(tmp_path / "reports"),
        ]
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 1, done.stdout + done.stderr
        (line,) = [l for l in done.stdout.splitlines() if l.startswith("Lazy")]
        hist_avg, hist_max, _p1, fail, passed, crash, _tf, _tp, sched, pruned, _pb = (
            line.split()[4:]
        )
        assert (hist_avg, hist_max, fail, passed, crash, sched, pruned) == LAZY_ROW

    def test_check_still_counts_the_gate_tests_classes(self, capsys):
        import json

        assert main(["check", "ConcurrentQueue", "--test", GATE, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["reduction"]["equivalence_classes"] == 1446
        assert main(["check", "ConcurrentQueue", "--test", GATE]) == 0
        assert (
            "reduction: none — 3747 schedules explored, 1446 equivalence "
            "classes, 0 pruned"
        ) in capsys.readouterr().out.splitlines()
