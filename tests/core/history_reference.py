"""Reference definitions of paper Section 2.1 that the checker never
needs: serial histories, complete(H), full histories, and a serial
history expanded back to events.  The history tests state their
properties against these."""

from __future__ import annotations

from repro.core.events import Event
from repro.core.history import History, SerialHistory


def is_serial(history: History) -> bool:
    """Calls and returns alternate and each return matches its call."""
    if not history.events:
        return True
    if not history.events[0].is_call:
        return False
    expect_call = True
    last_key: tuple[int, int] | None = None
    for event in history.events:
        if event.is_call != expect_call:
            return False
        if event.is_return and (event.thread, event.op_index) != last_key:
            return False
        last_key = (event.thread, event.op_index)
        expect_call = not expect_call
    return True


def is_full(history: History) -> bool:
    """Complete (no pending calls) and not stuck."""
    return not history.stuck and all(op.complete for op in history.operations)


def complete_history(history: History) -> History:
    """complete(H): the history with all pending calls deleted."""
    pending = {op.key for op in history.pending_operations}
    kept = [
        e for e in history.events
        if not (e.is_call and (e.thread, e.op_index) in pending)
    ]
    return History(kept, history.n_threads, stuck=False)


def to_history(serial: SerialHistory, n_threads: int | None = None) -> History:
    """Expand a serial history to an explicit event-level history."""
    counters: dict[int, int] = {}
    events: list[Event] = []
    for step in serial.steps:
        idx = counters.get(step.thread, 0)
        counters[step.thread] = idx + 1
        events.append(Event.call(step.thread, idx, step.invocation))
        if step.response is not None:
            events.append(Event.ret(step.thread, idx, step.response))
    if n_threads is None:
        n_threads = 1 + max((s.thread for s in serial.steps), default=-1)
    return History(events, n_threads, stuck=serial.stuck)
