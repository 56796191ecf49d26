"""The wall-clock recorder: v2 trace shape, clock, thread retirement."""

from __future__ import annotations

import json

from repro.core.events import Invocation, Response
from repro.live import LiveRecorder
from repro.monitor import load_trace


def test_records_loadable_v2_trace(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = LiveRecorder(path, sessions=2, subject="s", model="counter")
    t0 = recorder.allocate_thread()
    t1 = recorder.allocate_thread()
    i0 = recorder.begin(t0, Invocation("inc"))
    i1 = recorder.begin(t1, Invocation("get"))
    recorder.commit(t0, i0, Response.of(None))
    recorder.commit(t1, i1, Response.of(1))
    recorder.finalize("completed")

    trace = load_trace(path)
    assert trace.subject == "s"
    assert trace.live is not None
    assert trace.live.model == "counter"
    assert trace.live.outcome == "completed"
    assert trace.live.outcome is not None
    assert len(trace.histories) == 1
    history = trace.histories[0]
    assert not history.stuck
    assert not history.pending_operations
    assert len(history.operations) == 2


def test_timestamps_monotonic_and_interval_ordered(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = LiveRecorder(path, sessions=1)
    thread = recorder.allocate_thread()
    for _ in range(5):
        op = recorder.begin(thread, Invocation("inc"))
        recorder.commit(thread, op, Response.of(None))
    recorder.finalize("completed")

    stamps = []
    with open(path, encoding="utf-8") as handle:
        next(handle)  # header
        for line in handle:
            stamps.append(json.loads(line)["ts"])
    assert stamps == sorted(stamps)
    assert all(ts >= 0 for ts in stamps)

    trace = load_trace(path)
    for (ts_call, ts_ret) in trace.live.intervals.values():
        assert ts_ret is not None and ts_ret >= ts_call


def test_indeterminate_retires_thread(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = LiveRecorder(path, sessions=1)
    thread = recorder.allocate_thread()
    op = recorder.begin(thread, Invocation("inc"))
    fresh = recorder.indeterminate_op(thread, op, "Timeout")
    assert fresh != thread  # the old logical thread is never reused
    op2 = recorder.begin(fresh, Invocation("get"))
    recorder.commit(fresh, op2, Response.of(0))
    recorder.finalize("completed")

    trace = load_trace(path)
    history = trace.histories[0]
    pending = history.pending_operations
    assert len(pending) == 1
    assert pending[0].invocation.method == "inc"
    assert pending[0].thread == thread
    assert trace.live.indeterminate == [(thread, op, "Timeout")]
    # The completed op on the fresh thread is a normal (returned) op.
    returned = [op for op in history.operations if op.response is not None]
    assert len(returned) == 1
    assert returned[0].invocation.method == "get"
    assert recorder.indeterminate == 1
    assert recorder.completed == 1


def test_finalize_is_idempotent_and_emits_once(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = LiveRecorder(path, sessions=1)
    recorder.finalize("drained")
    recorder.finalize("drained")  # second call: no-op, no double marker
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert sum(1 for l in lines if json.loads(l).get("e") == "end") == 1


def test_events_counter_tracks_lines(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = LiveRecorder(path, sessions=1)
    thread = recorder.allocate_thread()
    assert recorder.events == 0
    op = recorder.begin(thread, Invocation("inc"))
    assert recorder.events == 1
    recorder.commit(thread, op, Response.of(None))
    assert recorder.events == 2
    recorder.finalize("completed")


def test_concurrent_sessions_record_safely(tmp_path):
    import threading

    path = str(tmp_path / "t.jsonl")
    recorder = LiveRecorder(path, sessions=4)

    def worker():
        thread = recorder.allocate_thread()
        for _ in range(20):
            op = recorder.begin(thread, Invocation("inc"))
            recorder.commit(thread, op, Response.of(None))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    recorder.finalize("completed")

    trace = load_trace(path)
    assert len(trace.histories[0].operations) == 80
    assert not trace.truncated
