"""Chaos layer: config parsing, injection mechanics, and the
differential suite — for every fault mode, the recorded trace is
well-formed, every ambiguous completion is a pending op, and the
correct SUT is never failed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import Invocation, Response
from repro.live import (
    AmbiguousFailure,
    ChaosConfig,
    ChaosTransport,
    ConnectFailed,
    LiveConfig,
    Transport,
    parse_chaos,
    run_live,
)
from repro.live.chaos import CHAOS_MODES
from repro.monitor import load_trace


class TestParseChaos:
    def test_none_and_empty(self):
        assert parse_chaos("none").modes == frozenset()
        assert parse_chaos("").modes == frozenset()

    def test_all(self):
        assert parse_chaos("all").modes == frozenset(CHAOS_MODES)

    def test_comma_list(self):
        config = parse_chaos("drop, latency", seed=9)
        assert config.modes == {"drop", "latency"}
        assert config.seed == 9

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            parse_chaos("gremlins")

    def test_session_rng_deterministic_and_distinct(self):
        config = ChaosConfig(modes=frozenset(["drop"]), seed=1)
        a1 = [config.session_rng(0).random() for _ in range(5)]
        a2 = [config.session_rng(0).random() for _ in range(5)]
        b = [config.session_rng(1).random() for _ in range(5)]
        assert a1 == a2  # same seed+session → same fault stream
        assert a1 != b  # sessions decorrelated


class CountingTransport(Transport):
    """Records traffic; the chaos proxy sits in front of it."""

    def __init__(self):
        self.connects = 0
        self.calls = 0
        self.resets = 0

    def connect(self):
        self.connects += 1

    def call(self, invocation):
        self.calls += 1
        return Response.of(None)

    def reset(self):
        self.resets += 1

    def close(self):
        pass


class TestInjection:
    def test_drop_never_reaches_the_wire(self):
        config = ChaosConfig(modes=frozenset(["drop"]), drop_prob=1.0)
        inner = CountingTransport()
        chaos = ChaosTransport(inner, config, random.Random(0))
        with pytest.raises(AmbiguousFailure, match="ChaosDrop"):
            chaos.call(Invocation("inc"))
        assert inner.calls == 0  # the request was NOT sent
        assert chaos.injected["drop"] == 1

    def test_disconnect_executes_then_tears_down(self):
        config = ChaosConfig(
            modes=frozenset(["disconnect"]), disconnect_prob=1.0
        )
        inner = CountingTransport()
        chaos = ChaosTransport(inner, config, random.Random(0))
        with pytest.raises(AmbiguousFailure, match="ChaosDisconnect"):
            chaos.call(Invocation("inc"))
        assert inner.calls == 1  # the request WAS executed
        assert inner.resets == 1
        assert chaos.injected["disconnect"] == 1

    def test_refuse_is_pre_invocation(self):
        config = ChaosConfig(modes=frozenset(["refuse"]), refuse_prob=1.0)
        inner = CountingTransport()
        chaos = ChaosTransport(inner, config, random.Random(0))
        with pytest.raises(ConnectFailed, match="ChaosRefused"):
            chaos.connect()
        assert inner.connects == 0
        assert chaos.injected["refuse"] == 1

    def test_disabled_modes_inject_nothing(self):
        config = ChaosConfig(
            modes=frozenset(),
            drop_prob=1.0,
            disconnect_prob=1.0,
            refuse_prob=1.0,
        )
        inner = CountingTransport()
        chaos = ChaosTransport(inner, config, random.Random(0))
        chaos.connect()
        chaos.call(Invocation("inc"))
        assert sum(chaos.injected.values()) == 0


def run_campaign(sut, model, chaos_spec, tmp_path, *, sessions=3, ops=10,
                 seed=0, chaos_seed=0):
    from dataclasses import replace

    chaos = parse_chaos(chaos_spec, seed=chaos_seed)
    # Aggressive probabilities: every fault mode must actually fire
    # within a small campaign.
    chaos = replace(
        chaos,
        latency_prob=0.5,
        latency_max=0.005,
        drop_prob=0.25,
        disconnect_prob=0.25,
        refuse_prob=0.3,
    )
    config = LiveConfig(
        model=model,
        sessions=sessions,
        ops=ops,
        op_timeout=2.0,
        seed=seed,
        chaos=chaos if chaos.modes else None,
        trace_out=str(tmp_path / "t.jsonl"),
    )
    return run_live("127.0.0.1", sut.port, config), config


class TestDifferential:
    """One sub-test per fault mode, same assertions each time."""

    @pytest.mark.parametrize(
        "mode", ["latency", "drop", "disconnect", "refuse",
                 "drop,disconnect,latency,refuse"]
    )
    def test_correct_sut_never_failed(self, correct_sut, tmp_path, mode):
        result, config = run_campaign(correct_sut, "counter", mode, tmp_path)

        # 1. The recorded trace is well-formed JSONL (only v2 loads).
        trace = load_trace(config.trace_out)
        assert not trace.truncated
        assert trace.live is not None and trace.live.outcome is not None

        # 2. Every ambiguous completion appears as a pending operation —
        #    never resolved by guesswork.
        history = trace.histories[0]
        assert len(history.pending_operations) == result.indeterminate
        assert len(trace.live.indeterminate) == result.indeterminate
        injected_ambiguous = result.injected.get("drop", 0) + result.injected.get(
            "disconnect", 0
        )
        assert result.indeterminate >= injected_ambiguous

        # 3. The verdict is sound: injected faults never fail a correct
        #    service.
        assert result.verdict in ("PASS", "EXHAUSTED")

    def test_faults_actually_fired(self, correct_sut, tmp_path):
        result, _config = run_campaign(
            correct_sut, "counter", "drop,disconnect,refuse,latency",
            tmp_path, sessions=3, ops=12,
        )
        assert result.injected.get("drop", 0) > 0
        assert result.injected.get("disconnect", 0) > 0
        assert result.injected.get("refuse", 0) > 0
        assert result.injected.get("latency", 0) > 0

    @pytest.mark.parametrize("model", ["counter", "queue"])
    def test_buggy_sut_caught_under_chaos(self, tmp_path, model):
        # The seeded bug must still be detected through the noise of
        # injected ambiguity.  Latency chaos widens intervals (sound),
        # drops add pendings; the lost update is real and must survive
        # both.
        from tests.live.conftest import start_server

        with start_server("buggy", race_window=0.02) as sut:
            for attempt in range(4):  # the race is probabilistic
                result, _config = run_campaign(
                    sut, model, "latency", tmp_path,
                    sessions=4, ops=12, seed=attempt, chaos_seed=attempt,
                )
                if result.verdict == "FAIL":
                    break
            assert result.verdict == "FAIL"

    def test_drop_vs_disconnect_are_both_admissible(self, tmp_path):
        # The two opposite resolutions of the same recorded artifact:
        # a dropped op never executed; a disconnected op always did.
        # The open-history checker must admit BOTH from the same kind of
        # trace — this is the heart of indeterminate-operation soundness.
        # A fresh SUT per campaign: a live check assumes the service
        # starts in the model's initial state.
        from tests.live.conftest import start_server

        for spec in ("drop", "disconnect"):
            with start_server("correct") as sut:
                result, config = run_campaign(
                    sut, "counter", spec, tmp_path, sessions=3, ops=10
                )
            assert result.verdict in ("PASS", "EXHAUSTED"), spec
            trace = load_trace(config.trace_out)
            assert (
                len(trace.histories[0].pending_operations)
                == result.indeterminate
            )
