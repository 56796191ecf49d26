"""Campaign orchestration: verdicts, degradation, and the no-hang bound.

The process-spawning tests here are the expensive ones; they pin the
three ways a campaign can end early (chaos kill, unexpected death,
interrupt) and that each one drains in bounded time with a checkable
partial trace.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.live import (
    LiveConfig,
    parse_chaos,
    render_live_result,
    run_live,
    start_refsut_process,
)
from repro.monitor import load_trace


def config_for(tmp_path, **kw):
    defaults = dict(
        model="counter", sessions=3, ops=10,
        trace_out=str(tmp_path / "t.jsonl"),
    )
    defaults.update(kw)
    return LiveConfig(**defaults)


class TestHappyPath:
    def test_completed_campaign_passes(self, correct_sut, tmp_path):
        result = run_live(
            "127.0.0.1", correct_sut.port, config_for(tmp_path)
        )
        assert result.verdict == "PASS"
        assert result.outcome == "completed"
        assert not result.partial
        assert result.completed == 3 * 10
        assert all(s.outcome == "finished" for s in result.session_stats)

    def test_buggy_campaign_fails(self, buggy_sut, tmp_path):
        for seed in range(4):
            result = run_live(
                "127.0.0.1",
                buggy_sut.port,
                config_for(tmp_path, sessions=4, ops=15, seed=seed),
            )
            if result.verdict == "FAIL":
                break
        assert result.verdict == "FAIL"
        assert result.verdict == "FAIL"

    def test_exhausted_budget_reported(self, correct_sut, tmp_path):
        # No closed form reads a counter trace: auto sends it to the search.
        result = run_live(
            "127.0.0.1",
            correct_sut.port,
            config_for(tmp_path, sessions=4, ops=10, max_configurations=1),
        )
        assert result.verdict == "EXHAUSTED"

    def test_render_is_complete(self, correct_sut, tmp_path):
        result = run_live(
            "127.0.0.1", correct_sut.port, config_for(tmp_path)
        )
        text = render_live_result(result)
        assert "live verdict: PASS" in text
        assert "session 0" in text
        assert "trace:" in text


class TestDegradation:
    def test_chaos_kill_yields_partial_not_crashed(self, tmp_path):
        proc = start_refsut_process("correct")
        try:
            chaos = replace(parse_chaos("kill"), kill_after_events=10)
            started = time.monotonic()
            result = run_live(
                "127.0.0.1",
                proc.port,
                config_for(tmp_path, ops=40, chaos=chaos),
                sut_process=proc,
            )
            elapsed = time.monotonic() - started
        finally:
            proc.close()
        assert result.outcome == "killed-by-chaos"
        assert result.partial
        # An expected kill is not CRASHED: the prefix verdict stands.
        assert result.verdict in ("PASS", "EXHAUSTED")
        assert result.injected.get("kill") == 1
        # No hang: sessions drained promptly after the service died.
        assert elapsed < 60
        trace = load_trace(str(tmp_path / "t.jsonl"))
        assert trace.live.outcome is not None
        assert trace.live.outcome == "killed-by-chaos"

    def test_unexpected_death_is_crashed(self, tmp_path):
        proc = start_refsut_process("correct")
        try:
            def murder():
                time.sleep(0.1)
                proc.proc.kill()  # behind RefSutProcess's back
                proc.proc.wait(timeout=5)

            threading.Thread(target=murder, daemon=True).start()
            result = run_live(
                "127.0.0.1",
                proc.port,
                config_for(tmp_path, ops=60),
                sut_process=proc,
            )
        finally:
            proc.close()
        assert result.outcome == "sut-died"
        assert result.verdict == "CRASHED"
        assert result.partial
        # The partial trace is still finalized and loadable.
        trace = load_trace(str(tmp_path / "t.jsonl"))
        assert trace.live.outcome is not None

    def test_fail_beats_crashed_in_precedence(self, tmp_path):
        # A violation recorded before the service died is a proof; the
        # death must not downgrade it to CRASHED.
        proc = start_refsut_process("buggy", race_window=0.02)
        try:
            result = None
            for seed in range(4):
                def murder():
                    time.sleep(1.0)
                    proc.proc.kill()
                    proc.proc.wait(timeout=5)

                killer = threading.Thread(target=murder, daemon=True)
                killer.start()
                result = run_live(
                    "127.0.0.1",
                    proc.port,
                    config_for(tmp_path, sessions=4, ops=15, seed=seed),
                    sut_process=proc,
                )
                killer.join(timeout=10)
                if result.verdict == "FAIL":
                    break
                if not proc.alive():
                    break
            # Whichever race won, the verdict must be FAIL or CRASHED —
            # and FAIL whenever the monitor found the violation.
            assert result.verdict in ("FAIL", "CRASHED")
            if result.monitor is not None and result.monitor.verdict == "FAIL":
                assert result.verdict == "FAIL"
        finally:
            proc.close()

    def test_should_stop_drains_as_interrupted(self, correct_sut, tmp_path):
        stop_after = time.monotonic() + 0.05
        result = run_live(
            "127.0.0.1",
            correct_sut.port,
            config_for(tmp_path, ops=10_000),
            should_stop=lambda: time.monotonic() > stop_after,
        )
        assert result.outcome == "interrupted"
        assert result.partial
        assert result.verdict in ("PASS", "EXHAUSTED")
        trace = load_trace(str(tmp_path / "t.jsonl"))
        assert trace.live.outcome == "interrupted"

    def test_unreachable_service_ends_in_bounded_time(self, tmp_path):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        result = run_live(
            "127.0.0.1", dead_port, config_for(tmp_path, sessions=2, ops=5)
        )
        elapsed = time.monotonic() - started
        assert elapsed < 30
        assert result.completed == 0
        assert any(
            s.outcome == "connect-exhausted" for s in result.session_stats
        )
        # Nothing reached the wire, nothing was recorded: vacuous pass of
        # an empty trace, not a false alarm.
        assert result.verdict == "PASS"
