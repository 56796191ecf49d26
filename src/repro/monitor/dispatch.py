"""The verdict of one recorded history against a model.

:func:`monitor_history` is the per-history verdict of ``check --model
NAME``.  It judges the history as ``watch`` and ``monitor`` judge a
dump of it: :func:`replay` feeds its events, in order, into one
:class:`~repro.stream.engine.StreamChecker` — per key when the model is
partitionable and every operation has a key — and, for a stuck history,
takes the same end-of-history step that justifies every pending
operation (a pending op must be *allowed* to block: a reachable model
state in which its invocation blocks).

``engine="wgl"`` is the offline reference the tests and benchmarks
compare the online engine with: the Wing–Gong–Lowe search of
:func:`~repro.monitor.wgl.wgl_check` plus
:func:`~repro.monitor.wgl.check_stuck_history_model`, a search per
pending operation.  No command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.events import Operation
from repro.core.history import History
from repro.monitor.incremental import (
    IncrementalChecker,
    MonitorLimitError,
    OnlineCounterexample,
)
from repro.monitor.models import SequentialModel

if TYPE_CHECKING:
    from repro.monitor.wgl import MonitorCounterexample
    from repro.stream.engine import StreamChecker

__all__ = ["MonitorVerdict", "monitor_history", "online_failure", "replay"]


@dataclass(frozen=True)
class MonitorVerdict:
    """Complete verdict of one history: linearization + blocking.

    In a **stuck** history the scheduler observed the pending operations
    blocking, so the verdict additionally demands a blocking
    justification; ``failed_pending`` is the first operation without
    one.  In an **open** history (a live recording with indeterminate
    operations) nothing was observed to block, and each pending
    operation is free to linearize anywhere after its call, or nowhere.
    """

    ok: bool
    engine: str  #: "incremental", or "wgl" for the reference
    configurations: int
    #: why not: the online engine's failing return or unjustified pending
    #: operation, or the reference's deepest prefix; None on a PASS.
    counterexample: OnlineCounterexample | MonitorCounterexample | None = None
    #: the unjustified pending operation of a stuck history.
    failed_pending: Operation | None = None


def online_failure(
    history: History, counterexample: OnlineCounterexample, configurations: int
) -> MonitorVerdict:
    """The verdict of *history*, which the online engine failed with
    *counterexample* (on a return, or on a pending operation)."""
    key = (counterexample.thread, counterexample.op_index)
    return MonitorVerdict(
        ok=False,
        engine=IncrementalChecker.engine,
        configurations=configurations,
        counterexample=counterexample,
        failed_pending=(
            history.operation_map[key] if counterexample.observed is None else None
        ),
    )


def replay(
    history: History,
    model: SequentialModel,
    *,
    max_configurations: int | None = None,
) -> StreamChecker:
    """Feed *history* into a :class:`~repro.stream.engine.StreamChecker`
    and return it: its events in order, stopping at a FAIL, then, for a
    stuck history, the end-of-history step.

    The stream is split per key when the model is partitionable and no
    operation is global — decided up front, since the whole history is
    at hand (``watch`` learns it mid-file and restarts).
    """
    # Imported here: repro.stream's engine imports this package.
    from repro.stream.engine import StreamChecker

    partition = model.partitionable and all(
        model.partition_key(op.invocation) is not None
        for op in history.operations
    )
    stream = StreamChecker(
        model, partition=partition, max_configurations=max_configurations
    )
    alive = all(
        stream.on_event((
            event.is_call,
            event.thread,
            event.op_index,
            event.invocation if event.is_call else event.response,
        ))
        for event in history.events
    )
    if alive and history.stuck:
        stream.justify_pending()
    return stream


def monitor_history(
    history: History,
    model: SequentialModel,
    *,
    engine: str = "online",
    max_configurations: int | None = None,
) -> MonitorVerdict:
    """Check one history end to end against *model*.

    *max_configurations* caps the closure of one return (the online
    engine) or the whole search (the reference); past it, with no FAIL
    found, :class:`~repro.monitor.incremental.MonitorLimitError` is raised.  An
    ill-formed history — one no trace file can hold, such as a thread
    calling while its last call is open — raises :class:`ValueError`.
    """
    if history.ill_formed_thread is not None:
        raise ValueError(
            f"ill-formed history: thread {history.ill_formed_thread} does "
            "not alternate calls and their returns"
        )
    if engine == "wgl":
        return _reference(history, model, max_configurations)
    if engine != "online":
        raise ValueError(f"unknown monitor engine {engine!r} (online or wgl)")
    stream = replay(history, model, max_configurations=max_configurations)
    if stream.failed is not None:
        return online_failure(history, stream.failed, stream.configurations())
    if stream.exhausted:
        raise MonitorLimitError(
            f"incremental check exceeded {max_configurations} configurations "
            "in the closure of one return"
        )
    return MonitorVerdict(
        ok=True,
        engine=IncrementalChecker.engine,
        configurations=stream.configurations(),
    )


def _reference(
    history: History, model: SequentialModel, max_configurations: int | None
) -> MonitorVerdict:
    """The offline verdict: WGL, then a blocking search per pending op."""
    from repro.monitor.wgl import check_stuck_history_model, wgl_check

    result = wgl_check(history, model, max_configurations=max_configurations)
    if not result.ok:
        return MonitorVerdict(
            ok=False,
            engine=result.engine,
            configurations=result.configurations,
            counterexample=result.counterexample,
        )
    configurations = result.configurations
    failed = None
    if history.stuck:
        stuck = check_stuck_history_model(
            history, model, max_configurations=max_configurations
        )
        configurations += stuck.configurations
        failed = stuck.failed
    return MonitorVerdict(
        ok=failed is None,
        engine=result.engine,
        configurations=configurations,
        failed_pending=failed,
    )
