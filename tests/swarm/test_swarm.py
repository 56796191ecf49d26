"""End-to-end sharded exploration over a real worker pool.

The acceptance tests for the swarm subsystem: a sharded exhaustive
check produces the *exact* single-process verdict and distinct-history
numbers, keeps doing so when a worker is SIGKILLed mid-run, quarantines
a shard whose subtree kills workers (leaving a resumable crash report),
and resumes an interrupted run from its merge checkpoint.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.checker import CheckConfig
from repro.core.checkpoint import load_checkpoint
from repro.core.events import Invocation
from repro.core.testcase import FiniteTest
from repro.exec import WorkerPool
from repro.swarm import SwarmConfig, swarm_check

from tests.swarm.conftest import FAULT_PROVIDER, single_process_baseline

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

BUFFER_TEST = FiniteTest.of(
    [
        [Invocation("Put", (1,)), Invocation("Take", ())],
        [Invocation("TryTake", ())],
    ]
)

RACY_TEST = FiniteTest.of(
    [[Invocation("Incr", ())], [Invocation("Incr", ())]]
)


def _swarm(test, *, pool_config, swarm, config=None, **kwargs):
    with WorkerPool(pool_config) as pool:
        return swarm_check(
            "BoundedBuffer",
            "beta",
            test,
            config or CheckConfig(),
            provider=FAULT_PROVIDER,
            swarm=swarm,
            pool=pool,
            **kwargs,
        )


class TestShardedEqualsSingleProcess:
    def test_exhaustive_buffer_check_matches_baseline(self, pool_config):
        config = CheckConfig()
        baseline = single_process_baseline(
            "BoundedBuffer", "beta", BUFFER_TEST, config
        )
        result = _swarm(
            BUFFER_TEST,
            config=config,
            pool_config=pool_config(),
            swarm=SwarmConfig(shards=3, lease_executions=16),
        )
        assert result.passed and result.phase2_complete
        assert result.verdict == baseline.verdict
        assert result.phase2_executions == baseline.phase2_executions
        assert result.equivalence_classes == baseline.equivalence_classes
        assert result.leases >= 3


class TestWorkerLossMidRun:
    def test_sigkilled_worker_does_not_change_the_answer(self, pool_config):
        config = CheckConfig()
        baseline = single_process_baseline(
            "BoundedBuffer", "beta", BUFFER_TEST, config
        )
        killed: list[int] = []
        threads: list[threading.Thread] = []

        def stalk(pool):
            # Poll until some worker is mid-lease, then SIGKILL it.  The
            # supervisor must notice the death, requeue the in-flight
            # lease, and the merged answer must not move.
            deadline = time.monotonic() + 60.0
            while not killed and time.monotonic() < deadline:
                for worker in list(pool._workers):
                    if worker.dead or worker.task is None:
                        continue
                    process = worker.process
                    if process.pid and process.is_alive():
                        try:
                            os.kill(process.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            continue
                        killed.append(process.pid)
                        return
                time.sleep(0.005)

        def assassin(name, payload):
            if name != "partitioned":
                return
            thread = threading.Thread(
                target=stalk, args=(payload["pool"],), daemon=True
            )
            threads.append(thread)
            thread.start()

        result = _swarm(
            BUFFER_TEST,
            config=config,
            pool_config=pool_config(),
            swarm=SwarmConfig(shards=3, lease_executions=8),
            on_event=assassin,
        )
        for thread in threads:
            thread.join(timeout=5.0)
        assert killed, "no busy worker was ever available to kill"
        assert result.passed and result.phase2_complete
        assert result.phase2_executions == baseline.phase2_executions
        assert result.equivalence_classes == baseline.equivalence_classes


class TestQuarantine:
    def test_worker_killing_shard_is_quarantined_and_resumable(
        self, pool_config, tmp_path
    ):
        # RacyCounter is serially clean; only some phase-2 interleavings
        # die.  The swarm must burn the retry budget, quarantine the
        # killer shard(s), and leave a crash report whose shard
        # checkpoint deterministically replays the crash.
        with WorkerPool(pool_config(max_retries=1)) as pool:
            result = swarm_check(
                "RacyCounter",
                "beta",
                RACY_TEST,
                CheckConfig(),
                provider=FAULT_PROVIDER,
                swarm=SwarmConfig(shards=2, lease_executions=64),
                pool=pool,
            )
        assert result.verdict == "CRASHED"
        assert result.quarantined >= 1
        assert result.crash_reports
        report = next(s for s in result.shards if s.crash_report)
        assert report.verdict == "CRASHED"
        assert report.shard_checkpoint and os.path.exists(
            report.shard_checkpoint
        )

        with open(report.crash_report) as handle:
            crash = json.load(handle)
        assert "--shards" in crash["repro_command"]
        assert crash["shard_checkpoint"] == report.shard_checkpoint
        assert "resume" in crash["resume_command"]

        # The checkpoint replays the shard's frontier in-process and
        # must die exactly the way the worker died: exit code 5.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "resume", report.shard_checkpoint],
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 5, proc.stderr

    def test_an_opaque_probe_gets_a_lineage_of_its_own(self, tmp_path):
        """Two of the racy counter's fifteen partition probes kill their
        worker.  With no crash retries each such prefix is dispatched
        whole, as an opaque shard, and quarantined on its own lease."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "RacyCounter",
             "--provider", FAULT_PROVIDER, "--test", "Incr | Incr",
             "--shards", "4", "--max-retries", "0",
             "--report-dir", str(tmp_path / "reports"), "--json"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 70, proc.stderr
        swarm = json.loads(proc.stdout)["swarm"]
        assert swarm["partition_probes"] == 15
        assert [
            (shard["shard"], shard["verdict"], shard["opaque"])
            for shard in swarm["shards"]
        ] == [
            (0, "CRASHED", False),
            (1, "PASS", False),
            (2, "PASS", False),
            (3, "CRASHED", False),
            (4, "CRASHED", True),
            (5, "CRASHED", True),
        ]

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_only_a_re_dispatch_counts_as_a_requeue(
        self, pool_config, tmp_path, max_retries
    ):
        """A quarantined lease ran ``max_retries + 1`` times: that is
        ``max_retries`` requeues, not one per crash.  A resumed
        quarantined shard gets exactly one fresh attempt, which requeues
        nothing."""
        checkpoint = str(tmp_path / "racy.json")

        def run(**kwargs):
            with WorkerPool(pool_config(max_retries=max_retries)) as pool:
                return swarm_check(
                    "RacyCounter",
                    "beta",
                    RACY_TEST,
                    CheckConfig(),
                    provider=FAULT_PROVIDER,
                    swarm=SwarmConfig(shards=2, lease_executions=64),
                    pool=pool,
                    checkpoint_path=checkpoint,
                    **kwargs,
                )

        first = run()
        crashed = [shard for shard in first.shards if shard.verdict == "CRASHED"]
        assert crashed and first.quarantined == len(crashed)
        assert first.requeues == max_retries * len(crashed)
        for shard in crashed:
            assert (shard.retries, shard.crashes) == (max_retries, max_retries + 1)
            with open(shard.crash_report) as handle:
                assert json.load(handle)["attempts"] == max_retries + 1

        resumed = run(resume_document=load_checkpoint(checkpoint))
        assert resumed.requeues == first.requeues
        assert [
            (shard.shard, shard.verdict, shard.retries, shard.crashes)
            for shard in resumed.shards
            if shard.shard in {s.shard for s in crashed}
        ] == [
            (shard.shard, "CRASHED", shard.retries, shard.crashes + 1)
            for shard in crashed
        ]


class TestSwarmResume:
    def test_interrupted_run_resumes_to_the_exact_answer(
        self, pool_config, tmp_path
    ):
        config = CheckConfig()
        baseline = single_process_baseline(
            "BoundedBuffer", "beta", BUFFER_TEST, config
        )
        checkpoint = str(tmp_path / "swarm-ckpt.json")
        first = _swarm(
            BUFFER_TEST,
            config=config,
            pool_config=pool_config(),
            swarm=SwarmConfig(shards=3, lease_executions=8),
            control=ExplorationControl(
                budget=ExplorationBudget(max_executions=30)
            ),
            checkpoint_path=checkpoint,
        )
        assert not first.phase2_complete
        assert first.phase2_executions < baseline.phase2_executions

        document = load_checkpoint(checkpoint)
        assert document["kind"] == "swarm"
        resumed = _swarm(
            BUFFER_TEST,
            config=config,
            pool_config=pool_config(),
            swarm=SwarmConfig(shards=3, lease_executions=8),
            checkpoint_path=checkpoint,
            resume_document=document,
        )
        assert resumed.passed and resumed.phase2_complete
        assert resumed.phase2_executions == baseline.phase2_executions
        assert resumed.equivalence_classes == baseline.equivalence_classes


class _UnusedPool:
    """A pool the swarm must not touch."""

    def __getattr__(self, name):
        pytest.fail(f"the pool was used: .{name}")


class TestPhase1Gate:
    """The coordinator's phase 1 is the checker's: when its gate says no,
    the answer is phase 1's and no worker starts."""

    @staticmethod
    def _gated(test, class_name, **kwargs):
        events = []
        result = swarm_check(
            class_name,
            "beta",
            test,
            CheckConfig(),
            swarm=SwarmConfig(shards=2),
            pool=_UnusedPool(),
            on_event=lambda name, payload: events.append(name),
            **kwargs,
        )
        assert not events and result.phase2_executions == 0 and not result.shards
        return result

    def test_nondeterministic_specification_fails_with_the_rendered_violation(
        self,
    ):
        from repro.structures import get_class

        # Cause K: the asynchronous cancel makes the serial behaviour itself
        # nondeterministic.
        test = next(
            cause.witness_test
            for cause in get_class("CancellationTokenSource").causes
            if cause.tag == "K"
        )
        result = self._gated(test, "CancellationTokenSource")
        assert result.verdict == "FAIL" and result.phase2_complete
        (violation,) = result.violations
        assert violation["kind"] == "nondeterministic-specification"
        assert "violation of deterministic linearizability" in violation["rendered"]
        assert "history 2: <A:Cancel()" in violation["rendered"]

    def test_a_gated_cli_run_leaves_no_report_directory(self, tmp_path, capsys):
        """``check --shards`` opens its pool before phase 1; a pool that
        spawns no worker makes no report directory."""
        from repro.cli import main

        reports = tmp_path / "reports"
        code = main([
            "check", "CancellationTokenSource", "--test", "Cancel; Increment",
            "--shards", "2", "--report-dir", str(reports),
        ])
        assert code == 1
        assert "serial specification is nondeterministic" in capsys.readouterr().out
        assert not reports.exists()

    def test_partial_specification_is_exhausted_not_explored(self):
        result = self._gated(
            BUFFER_TEST,
            "BoundedBuffer",
            provider=FAULT_PROVIDER,
            control=ExplorationControl(budget=ExplorationBudget(max_executions=1)),
        )
        assert result.verdict == "EXHAUSTED"
        assert result.exhausted_reason == "executions"
        assert not result.phase2_complete and not result.violations
        assert result.phase1.executions == 1 and not result.phase1.complete


class TestSwarmConfig:
    def test_a_checkpoint_with_the_retired_knobs_loads_and_ignores_them(self):
        from repro.core.checkpoint import test_to_dict
        from repro.swarm.runner import parse_swarm_state

        document = {
            "kind": "swarm",
            "subject": {"cls": "BoundedBuffer", "version": "beta"},
            "test": test_to_dict(BUFFER_TEST),
            "config": {},
            # As written before the three knobs became constants.
            "swarm": {
                "shards": 3,
                "lease_executions": 8,
                "over_partition": 5,
                "max_probe_rounds": 1,
                "steal": False,
                "partition_probes": 4,
            },
        }
        _subject, test, _config, swarm = parse_swarm_state(document)
        assert test == BUFFER_TEST
        assert swarm == SwarmConfig(shards=3, lease_executions=8)
        assert swarm.to_dict() == {"shards": 3, "lease_executions": 8}
