"""Supervision tests: verdicts, crash retry, quarantine, the flaky guard.

These spawn real worker processes; configs keep the checks tiny (random
phase 2, 10 executions) so each test stays in the seconds range.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exec import (
    PoolConfig,
    SupervisorError,
    TaskSpec,
    WorkerPool,
    repro_command,
)

from tests.exec.conftest import FAST_CONFIG, make_spec


class TestVerdicts:
    def test_pass_and_fail_across_workers(self, pool_config):
        specs = [
            make_spec(0, "GoodRegister", [["Get"], ["Get"]]),
            make_spec(1, "NondetRegister", [["Get"], ["Get"]]),
        ]
        with WorkerPool(pool_config(workers=2)) as pool:
            outcomes, stop = pool.run(specs)
        assert stop is None
        assert [o.index for o in outcomes] == [0, 1]
        assert outcomes[0].verdict == "PASS"
        assert outcomes[1].verdict == "FAIL"
        # Clean completions: no retries burned, no crash evidence.
        assert all(o.retries == 0 and not o.crashes for o in outcomes)
        # The decisive attempt's summary rides along for campaign rows.
        assert outcomes[0].summary is not None

    def test_pool_is_reusable_across_batches(self, pool_config):
        with WorkerPool(pool_config(workers=1)) as pool:
            first, _ = pool.run([make_spec(0, "GoodRegister", [["Get"]])])
            second, _ = pool.run([make_spec(0, "GoodRegister", [["Get"]])])
        assert first[0].verdict == "PASS"
        assert second[0].verdict == "PASS"


class TestCrashContainment:
    def test_crash_retries_then_quarantines(self, pool_config):
        config = pool_config(workers=1, max_retries=1)
        spec = make_spec(0, "CrashingRegister", [["Boom"]])
        with WorkerPool(config) as pool:
            outcomes, _ = pool.run([spec])
        (outcome,) = outcomes
        assert outcome.verdict == "CRASHED"
        assert outcome.crashed
        # One initial attempt + one retry, each crashing.
        assert outcome.retries == 2
        assert len(outcome.crashes) == 2
        assert all(c["reason"] == "worker-died" for c in outcome.crashes)
        assert all(c["exitcode"] == 3 for c in outcome.crashes)
        # The subject's dying words reach the crash evidence.
        assert "os._exit(3)" in outcome.crashes[0]["stderr_tail"]

    def test_crash_report_artifact(self, pool_config):
        config = pool_config(workers=1, max_retries=0)
        spec = make_spec(0, "CrashingRegister", [["Boom"]])
        with WorkerPool(config) as pool:
            outcomes, _ = pool.run([spec])
        (outcome,) = outcomes
        assert outcome.crash_report is not None
        assert os.path.exists(outcome.crash_report)
        report = json.loads(open(outcome.crash_report).read())
        assert report["format"] == "lineup-crash-report"
        assert report["version"] == 1
        assert report["class"] == "CrashingRegister"
        assert report["task_index"] == 0
        assert report["provider"] == "repro.exec.faults"
        assert "python -m repro check CrashingRegister" in report["repro_command"]
        assert "--provider repro.exec.faults" in report["repro_command"]
        assert report["crashes"][0]["exitcode"] == 3
        # The sandbox snapshot says what limits were actually enforced.
        assert "rlimits" in report["crashes"][0]

    def test_heartbeat_loss_is_detected(self, pool_config):
        """A SIGSTOPped worker never dies — heartbeat loss must catch it."""
        config = pool_config(
            workers=1, max_retries=0, heartbeat_timeout=2.0
        )
        spec = make_spec(0, "FreezingRegister", [["Freeze"]])
        with WorkerPool(config) as pool:
            outcomes, _ = pool.run([spec])
        (outcome,) = outcomes
        assert outcome.verdict == "CRASHED"
        assert outcome.crashes[0]["reason"] == "heartbeat-loss"


class TestFlakyVerdictGuard:
    def test_crash_triggers_rerun_of_suspect_fail(
        self, pool_config, tmp_path, monkeypatch
    ):
        """A FAIL from a later-crashed worker is re-run; disagreement is
        reported as nondeterministic-verdict, not silently kept."""
        monkeypatch.setenv("LINEUP_FAULT_DIR", str(tmp_path))
        config = pool_config(workers=1, max_retries=0)
        specs = [
            # FAILs on the first check in this environment, PASSes after.
            make_spec(0, "FlakyRegister", [["Get"]]),
            # Then kills the very worker that produced that FAIL.
            make_spec(1, "CrashingRegister", [["Boom"]]),
        ]
        with WorkerPool(config) as pool:
            outcomes, _ = pool.run(specs)
        flaky, crasher = outcomes
        assert crasher.verdict == "CRASHED"
        assert flaky.verdict == "nondeterministic-verdict"
        # First attempt FAILed, the re-run and tie-breaker PASSed.
        assert flaky.verdicts == ["FAIL", "PASS", "PASS"]


class TestPoolApi:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            PoolConfig(workers=0)
        with pytest.raises(ValueError, match="start_method"):
            PoolConfig(start_method="forkserver")
        with pytest.raises(ValueError, match="max_retries"):
            PoolConfig(max_retries=-1)

    def test_closed_pool_rejects_run(self, pool_config):
        pool = WorkerPool(pool_config(workers=1))
        pool.close()
        with pytest.raises(SupervisorError, match="closed"):
            pool.run([make_spec(0, "GoodRegister", [["Get"]])])

    def test_duplicate_task_indices_rejected(self, pool_config):
        with WorkerPool(pool_config(workers=1)) as pool:
            with pytest.raises(SupervisorError, match="unique"):
                pool.run(
                    [
                        make_spec(0, "GoodRegister", [["Get"]]),
                        make_spec(0, "GoodRegister", [["Get"]]),
                    ]
                )

    def test_repro_command_renders_the_failing_invocation(self):
        spec = make_spec(5, "CrashingRegister", [["Boom"], ["Get"]])
        command = repro_command(spec)
        assert command.startswith("python -m repro check CrashingRegister")
        assert "--version pre" in command
        assert '--test "Boom | Get"' in command
        assert "--provider repro.exec.faults" in command

    def test_repro_command_omits_default_provider(self):
        spec = TaskSpec(
            index=0,
            class_name="ConcurrentQueue",
            version="beta",
            test=make_spec(0, "GoodRegister", [["Get"]]).test,
            config=FAST_CONFIG,
            provider="repro.structures",
        )
        assert "--provider" not in repro_command(spec)


class TestBackoffJitter:
    """Crash-retry backoff is jittered, but reproducibly (seeded PRNG)."""

    def _delays(self, config, crashes=6):
        # Drive the retry bookkeeping directly: with ``time.monotonic``
        # pinned to zero, each recorded crash leaves its backoff delay
        # in ``state.not_before``.
        from collections import deque

        from repro.exec import supervisor as sup

        with WorkerPool(config) as pool:
            state = sup._TaskState(make_spec(0, "GoodRegister", [["Get"]]))
            delays = []
            for _ in range(crashes):
                pool._record_crash(state, deque(), {"reason": "test"})
                delays.append(state.not_before)
            return delays

    def test_same_seed_same_delays(self, pool_config, monkeypatch):
        from repro.exec import supervisor as sup

        monkeypatch.setattr(sup.time, "monotonic", lambda: 0.0)
        config = pool_config(max_retries=100, jitter_seed=42)
        first = self._delays(config)
        second = self._delays(pool_config(max_retries=100, jitter_seed=42))
        assert first == second
        other = self._delays(pool_config(max_retries=100, jitter_seed=7))
        assert first != other

    def test_zero_jitter_is_exact_exponential(self, pool_config, monkeypatch):
        from repro.exec import supervisor as sup

        monkeypatch.setattr(sup.time, "monotonic", lambda: 0.0)
        config = pool_config(
            max_retries=100, backoff_jitter=0.0, backoff_seconds=0.01
        )
        delays = self._delays(config, crashes=5)
        expected = [
            min(0.01 * 2**k, config.backoff_cap) for k in range(5)
        ]
        assert delays == pytest.approx(expected)

    def test_jitter_stays_within_spread_and_cap(self, pool_config, monkeypatch):
        from repro.exec import supervisor as sup

        monkeypatch.setattr(sup.time, "monotonic", lambda: 0.0)
        config = pool_config(
            max_retries=100, backoff_jitter=0.5, backoff_seconds=0.01
        )
        delays = self._delays(config, crashes=8)
        for attempt, delay in enumerate(delays):
            base = min(0.01 * 2**attempt, config.backoff_cap)
            assert delay <= config.backoff_cap + 1e-9
            assert base * 0.5 - 1e-9 <= delay <= base * 1.5 + 1e-9

    def test_out_of_range_jitter_rejected(self, pool_config):
        with pytest.raises(ValueError, match="backoff_jitter"):
            pool_config(backoff_jitter=1.5)


class TestShardReproCommand:
    """Quarantined swarm tasks reproduce with their sharding flags."""

    def _shard_spec(self):
        base = make_spec(3, "RacyCounter", [["Incr"], ["Incr"]])
        return TaskSpec(
            index=base.index,
            class_name=base.class_name,
            version=base.version,
            test=base.test,
            config=base.config,
            provider=base.provider,
            kind="shard",
            payload={"shard": 1},
            swarm={
                "shards": 4,
                "workers": 2,
                "mem_limit_mb": 512,
                "max_retries": 1,
            },
        )

    def test_shard_spec_renders_swarm_flags(self):
        command = repro_command(self._shard_spec())
        assert "--shards 4" in command
        assert "--workers 2" in command
        assert "--mem-limit-mb 512" in command
        assert "--max-retries 1" in command

    def test_check_spec_renders_no_swarm_flags(self):
        command = repro_command(make_spec(0, "GoodRegister", [["Get"]]))
        assert "--shards" not in command
        assert "--workers" not in command
