"""The acceptance scenario: a campaign survives subjects that kill,
wedge, or bloat their worker process.

A campaign is run over several classes where one subject calls
``os._exit`` mid-operation.  The campaign must finish, the hostile
class's tests must carry per-test ``CRASHED`` verdicts plus a
crash-report artifact, and every sibling class's verdicts must be
unaffected.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.campaign import run_class_campaign
from repro.core.checker import CheckConfig
from repro.exec import ResourceLimits, WorkerPool
from repro.exec.faults import get_class

from tests.exec.conftest import FAULT_PROVIDER, make_spec

FAST = CheckConfig(phase2_strategy="random", phase2_executions=10, seed=1)


class TestCampaignSurvivesCrashes:
    def test_crashing_class_is_quarantined_siblings_unaffected(
        self, pool_config
    ):
        plan = ["GoodRegister", "CrashingRegister", "NondetRegister"]
        rows = {}
        all_summaries = {}
        config = pool_config(workers=2, max_retries=1)
        with WorkerPool(config) as pool:
            for name in plan:
                row, summaries = run_class_campaign(
                    get_class(name),
                    "pre",
                    samples=2,
                    rows=2,
                    cols=2,
                    seed=3,
                    config=FAST,
                    executor=pool,
                    provider=FAULT_PROVIDER,
                )
                rows[name] = row
                all_summaries[name] = summaries

        # The campaign ran to completion for every class.  (Sampling
        # deduplicates, so single-invocation classes may yield one test.)
        for name in plan:
            assert rows[name].stop_reason is None
            assert rows[name].tests_run >= 1

        # The crashing class: every test quarantined, with evidence.
        crashed = rows["CrashingRegister"]
        assert crashed.tests_crashed == crashed.tests_run
        assert crashed.tests_failed == 0
        for summary in all_summaries["CrashingRegister"].values():
            assert summary.verdict == "CRASHED"
            assert summary.crash_report is not None
            assert os.path.exists(summary.crash_report)
            # retries consumed: 1 initial + 1 retry per test
            assert summary.attempts == 2
            report = json.loads(open(summary.crash_report).read())
            assert report["format"] == "lineup-crash-report"
            assert report["class"] == "CrashingRegister"

        # Siblings on the same pool keep their own, correct verdicts.
        good = rows["GoodRegister"]
        assert good.tests_passed == good.tests_run
        assert good.tests_crashed == 0
        nondet = rows["NondetRegister"]
        assert nondet.tests_failed == nondet.tests_run
        assert nondet.tests_crashed == 0

    def test_completed_summaries_are_skipped_on_resume(self, pool_config):
        """Resume semantics: tests already summarized are not re-run."""
        entry = get_class("CrashingRegister")
        config = pool_config(workers=1, max_retries=0)
        with WorkerPool(config) as pool:
            row, summaries = run_class_campaign(
                entry,
                "pre",
                samples=2,
                rows=1,
                cols=1,
                seed=3,
                config=FAST,
                executor=pool,
                provider=FAULT_PROVIDER,
            )
            assert row.tests_crashed == row.tests_run >= 1
            # Feed both summaries back as completed work: nothing runs
            # (a crashing class would otherwise crash the pool's worker).
            row2, summaries2 = run_class_campaign(
                entry,
                "pre",
                samples=2,
                rows=1,
                cols=1,
                seed=3,
                config=FAST,
                executor=pool,
                provider=FAULT_PROVIDER,
                completed=summaries,
            )
        assert summaries2 == summaries
        assert row2.tests_crashed == row.tests_crashed


class TestSandboxLayers:
    def test_systemexit_is_contained_in_process(self, pool_config):
        """SystemExit mid-operation becomes an exceptional response — the
        harness layer contains it; no crash machinery involved."""
        spec = make_spec(0, "ExitingRegister", [["Quit"], ["Get"]])
        with WorkerPool(pool_config(workers=1)) as pool:
            outcomes, _ = pool.run([spec])
        (outcome,) = outcomes
        assert outcome.verdict == "PASS"
        assert not outcome.crashes
        assert outcome.retries == 0

    def test_unbounded_allocation_is_sandboxed(self, pool_config):
        """RLIMIT_AS turns a hostile allocator into a MemoryError response
        or an isolated worker death — never a host OOM or a hang."""
        pytest.importorskip("resource")
        config = pool_config(
            workers=1,
            max_retries=0,
            limits=ResourceLimits(mem_limit_mb=512),
        )
        spec = make_spec(0, "AllocatingRegister", [["Hog"]])
        with WorkerPool(config) as pool:
            outcomes, _ = pool.run([spec])
        (outcome,) = outcomes
        # Either containment layer is acceptable; the campaign survives.
        assert outcome.verdict in ("PASS", "FAIL", "CRASHED")


class TestCliExitCodes:
    def test_every_test_crashing_exits_70(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "CrashingRegister",
                "--provider",
                FAULT_PROVIDER,
                "--isolate",
                "--workers",
                "1",
                "--max-retries",
                "0",
                "--versions",
                "pre",
                "--samples",
                "1",
                "--rows",
                "1",
                "--cols",
                "1",
                "--schedules",
                "10",
                "--report-dir",
                str(tmp_path / "reports"),
            ]
        )
        assert code == 70
        out = capsys.readouterr().out
        assert "quarantined" in out.lower() or "crash" in out.lower()
        reports = [
            f
            for f in os.listdir(tmp_path / "reports")
            if f.startswith("crash-") and f.endswith(".json")
        ]
        assert len(reports) == 1

    def test_wellbehaved_isolated_campaign_exits_0(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "GoodRegister",
                "--provider",
                FAULT_PROVIDER,
                "--isolate",
                "--workers",
                "1",
                "--versions",
                "pre",
                "--samples",
                "1",
                "--rows",
                "1",
                "--cols",
                "1",
                "--schedules",
                "10",
                "--report-dir",
                str(tmp_path / "reports"),
            ]
        )
        assert code == 0


class TestTheReportDirectory:
    """A pool removes the temporary report directory it made when it
    holds nothing to read: no crash report and only empty stderr files.
    A directory named with ``--report-dir`` is never deleted."""

    @staticmethod
    def _run(tmp_path, *argv):
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        env = {
            **os.environ,
            "TMPDIR": str(scratch),
            "PYTHONPATH": os.path.join(root, "src"),
        }
        run = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return run, scratch

    def test_a_clean_sharded_check_leaves_no_directory(self, tmp_path):
        run, scratch = self._run(
            tmp_path, "check", "ConcurrentQueue",
            "--test", "Enqueue(1) | TryDequeue", "--shards", "2",
        )
        assert run.returncode == 0, run.stderr
        assert list(scratch.iterdir()) == []

    def test_a_crash_report_keeps_its_directory(self, tmp_path):
        run, scratch = self._run(
            tmp_path, "campaign", "CrashingRegister",
            "--provider", FAULT_PROVIDER, "--isolate", "--workers", "1",
            "--max-retries", "0", "--versions", "pre", "--samples", "1",
            "--rows", "1", "--cols", "1", "--schedules", "10",
        )
        assert run.returncode == 70, run.stderr
        (directory,) = scratch.iterdir()
        assert directory.name.startswith("lineup-exec-")
        assert any(
            name.startswith("crash-") for name in os.listdir(directory)
        )
        assert self._named(run) == [str(directory)]

    @staticmethod
    def _named(run) -> list[str]:
        """The directories a campaign's "worker reports in" lines name."""
        prefix = "worker reports in "
        return [
            line[len(prefix):] for line in run.stdout.splitlines()
            if line.startswith(prefix)
        ]

    @pytest.mark.parametrize("given", [False, True], ids=["temporary", "given"])
    def test_a_campaign_names_only_a_directory_that_survives(self, tmp_path, given):
        reports = tmp_path / "reports"
        run, scratch = self._run(
            tmp_path, "campaign", "Lazy", "--versions", "pre", "--samples", "1",
            "--seed", "1", "--isolate", "--workers", "2",
            *(("--report-dir", str(reports)) if given else ()),
        )
        assert run.returncode == 1, run.stderr
        named = self._named(run)
        assert all(os.path.isdir(path) for path in named), named
        assert named == ([str(reports)] if given else [])
        assert list(scratch.iterdir()) == []

    def test_a_given_report_dir_is_kept(self, tmp_path):
        reports = tmp_path / "reports"
        run, _scratch = self._run(
            tmp_path, "check", "ConcurrentQueue",
            "--test", "Enqueue(1) | TryDequeue", "--shards", "2",
            "--report-dir", str(reports),
        )
        assert run.returncode == 0, run.stderr
        assert reports.is_dir()
