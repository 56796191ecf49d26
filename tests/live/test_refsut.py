"""The reference SUT: state semantics, wire protocol, process variant."""

from __future__ import annotations

import threading

import pytest

from repro.core.events import Invocation
from repro.live import HttpTransport, start_refsut_process
from repro.live.refsut import RefSutState
from tests.live.conftest import start_server


class TestState:
    def test_correct_counter(self):
        state = RefSutState("correct")
        assert state.op_get() == 0
        state.op_inc()
        state.op_inc()
        assert state.op_get() == 2

    def test_correct_queue_fifo(self):
        state = RefSutState("correct")
        assert state.op_TryDequeue() == "Fail"
        state.op_Enqueue(1)
        state.op_Enqueue(2)
        assert state.op_TryDequeue() == 1
        assert state.op_TryDequeue() == 2
        assert state.op_TryDequeue() == "Fail"

    def test_register(self):
        state = RefSutState("correct")
        assert state.op_Read() is None
        state.op_Write(42)
        assert state.op_Read() == 42

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            RefSutState("chaotic-good")

    def test_buggy_counter_loses_updates(self):
        # Two increments racing through the seeded window: both read 0,
        # both write 1 — deterministically, thanks to the barrier.
        state = RefSutState("buggy", race_window=0.05)
        barrier = threading.Barrier(2)

        def racer():
            barrier.wait()
            state.op_inc()

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state.op_get() == 1  # one update lost

    def test_buggy_queue_duplicate_dequeue(self):
        state = RefSutState("buggy", race_window=0.05)
        # Enqueue serially (no race), then race two dequeues.
        with state._lock:
            state._queue.extend([10, 20])
        barrier = threading.Barrier(2)
        results = []

        def racer():
            barrier.wait()
            results.append(state.op_TryDequeue())

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [10, 10]  # both read the same head


class TestWireProtocol:
    def test_roundtrip(self, correct_sut):
        transport = HttpTransport("127.0.0.1", correct_sut.port)
        transport.connect()
        try:
            assert transport.call(Invocation("inc")).value is None
            assert transport.call(Invocation("get")).value == 1
            # Structured argument round-trip via repr/literal_eval.
            transport.call(Invocation("Enqueue", ((1, "x"),)))
            assert transport.call(Invocation("TryDequeue")).value == (1, "x")
        finally:
            transport.close()

    def test_application_errors_are_definite(self, correct_sut):
        transport = HttpTransport("127.0.0.1", correct_sut.port)
        transport.connect()
        try:
            response = transport.call(Invocation("Explode"))
            assert response.kind == "raised"
            assert "UnknownMethod" in response.value
            response = transport.call(Invocation("inc", (1, 2, 3)))
            assert response.kind == "raised"
            assert "BadArity" in response.value
        finally:
            transport.close()

    def test_healthz(self, correct_sut):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", correct_sut.port)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b"ok"
        finally:
            conn.close()


class TestProcessVariant:
    def test_spawn_serve_kill(self):
        proc = start_refsut_process("correct")
        try:
            assert proc.alive()
            transport = HttpTransport("127.0.0.1", proc.port)
            transport.connect()
            transport.call(Invocation("inc"))
            assert transport.call(Invocation("get")).value == 1
            transport.close()
            proc.kill()
            assert not proc.alive()
            assert proc.killed_deliberately
        finally:
            proc.close()

    def test_in_process_context_manager(self):
        with start_server("correct") as sut:
            assert sut.state.op_get() == 0
