"""Session behaviour against a scriptable fake transport.

The fakes let us pin the retry/no-retry contract precisely: which
failures the session retries (pre-invocation), which it records as
indeterminate (post-invocation), and how draining interacts with both.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.events import Invocation, Response
from repro.live import (
    AmbiguousFailure,
    ConnectFailed,
    LiveRecorder,
    Session,
    SessionConfig,
    Transport,
    make_workload,
)
from repro.monitor import load_trace


class ScriptedTransport(Transport):
    """Replays a script of outcomes; records what the session did."""

    def __init__(self, connect_script=(), call_script=()):
        self.connect_script = list(connect_script)
        self.call_script = list(call_script)
        self.connects = 0
        self.calls = []

    def connect(self):
        self.connects += 1
        if self.connect_script:
            outcome = self.connect_script.pop(0)
            if outcome is not None:
                raise outcome

    def call(self, invocation):
        self.calls.append(invocation)
        if self.call_script:
            outcome = self.call_script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return Response.of(None)

    def reset(self):
        pass

    def close(self):
        pass


def run_session(transport, *, ops=5, model="counter", config=None, drain=None):
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        recorder = LiveRecorder(os.path.join(d, "t.jsonl"), sessions=1)
        session = Session(
            0,
            transport,
            recorder,
            make_workload(model, 0, random.Random(0)),
            config or SessionConfig(ops=ops, backoff_base=0.001),
            drain if drain is not None else threading.Event(),
            rng=random.Random(0),
        )
        session.start()
        session.join(timeout=30)
        assert not session.is_alive()
        recorder.finalize("completed")
        trace = load_trace(recorder.path)
        return session.stats, trace


class TestWorkloads:
    @pytest.mark.parametrize("model,methods", [
        ("counter", {"inc", "get"}),
        ("queue", {"Enqueue", "TryDequeue"}),
        ("register", {"Write", "Read"}),
    ])
    def test_workload_speaks_model_alphabet(self, model, methods):
        workload = make_workload(model, 0, random.Random(0))
        seen = {workload().method for _ in range(200)}
        assert seen == methods

    def test_workload_values_unique_across_sessions(self):
        a = make_workload("queue", 0, random.Random(0))
        b = make_workload("queue", 1, random.Random(0))
        values_a = {inv.args[0] for inv in (a() for _ in range(200)) if inv.args}
        values_b = {inv.args[0] for inv in (b() for _ in range(200)) if inv.args}
        assert not values_a & values_b

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="no live workload"):
            make_workload("stack", 0, random.Random(0))


class TestRetryContract:
    def test_connect_failures_retried_with_backoff(self):
        # Two refusals then success, every operation: all ops complete.
        script = []
        for _ in range(3):
            script += [ConnectFailed("refused"), ConnectFailed("refused"), None]
        transport = ScriptedTransport(connect_script=script)
        stats, trace = run_session(transport, ops=3)
        assert stats.outcome == "finished"
        assert stats.completed == 3
        assert stats.connect_retries == 6
        assert not trace.histories[0].pending_operations

    def test_connect_exhaustion_stops_the_session(self):
        transport = ScriptedTransport(
            connect_script=[ConnectFailed("refused")] * 100
        )
        config = SessionConfig(
            ops=5, connect_attempts=3, backoff_base=0.001, backoff_cap=0.01
        )
        stats, trace = run_session(transport, config=config)
        assert stats.outcome == "connect-exhausted"
        assert stats.completed == 0
        # Nothing was recorded: the failures were all pre-invocation.
        assert not trace.histories[0].operations
        assert not trace.histories[0].pending_operations

    def test_ambiguous_failure_recorded_never_retried(self):
        transport = ScriptedTransport(
            call_script=[
                Response.of(None),
                AmbiguousFailure("Timeout"),
                Response.of(None),
            ]
        )
        stats, trace = run_session(transport, ops=3)
        assert stats.outcome == "finished"
        assert stats.completed == 2
        assert stats.indeterminate == 1
        # Exactly 3 calls hit the wire: the ambiguous one was NOT resent.
        assert len(transport.calls) == 3
        history = trace.histories[0]
        assert len(history.pending_operations) == 1
        returned = [op for op in history.operations if op.response is not None]
        assert len(returned) == 2

    def test_drain_stops_before_next_operation(self):
        drain = threading.Event()
        drain.set()
        transport = ScriptedTransport()
        stats, trace = run_session(transport, ops=50, drain=drain)
        assert stats.outcome == "drained"
        assert stats.completed == 0
        assert transport.connects == 0
