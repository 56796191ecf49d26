"""Engine dispatch: pick the cheapest applicable monitoring algorithm.

``auto`` order, cheapest first:

1. :mod:`repro.monitor.specialized` — closed-form axioms, full
   unambiguous histories only;
2. :mod:`repro.monitor.compositional` — per-key partition, when the
   model is partitionable and the history has no global operations;
3. :mod:`repro.monitor.wgl` — the general search, always applicable.

:func:`monitor_history` is the complete per-history verdict the checker
backend and the ``lineup monitor`` subcommand share: the linearization
check plus, for stuck histories, the blocking justification of every
pending operation (a pending op must be *allowed* to block — reachable
model state in which its invocation blocks; see
:func:`repro.monitor.wgl.check_stuck_history_model`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import Operation
from repro.core.history import History
from repro.monitor.compositional import compositional_check
from repro.monitor.models import SequentialModel
from repro.monitor.specialized import specialized_check, try_specialized
from repro.monitor.wgl import (
    MonitorResult,
    StuckMonitorResult,
    check_stuck_history_model,
    wgl_check,
)

__all__ = ["ENGINES", "MonitorVerdict", "check_history_against_model", "monitor_history"]

#: Engine names :func:`monitor_history` accepts.  Every command runs
#: ``auto``; the named engines are for benchmarks and differential tests.
ENGINES = ("auto", "wgl", "compositional", "specialized")


def check_history_against_model(
    history: History,
    model: SequentialModel,
    *,
    engine: str = "auto",
    max_configurations: int | None = None,
) -> MonitorResult:
    """The linearization half of the verdict, via the chosen engine."""
    if engine == "wgl":
        return wgl_check(history, model, max_configurations=max_configurations)
    if engine == "compositional":
        return compositional_check(
            history, model, max_configurations=max_configurations
        )
    if engine == "specialized":
        return specialized_check(
            history, model, max_configurations=max_configurations
        )
    if engine == "auto":
        result = try_specialized(history, model)
        if result is not None:
            return result
        return compositional_check(
            history, model, max_configurations=max_configurations
        )
    raise ValueError(
        f"unknown monitor engine {engine!r} (choose from {', '.join(ENGINES)})"
    )


@dataclass(frozen=True)
class MonitorVerdict:
    """Complete verdict of one history: linearization + blocking.

    Pending operations come in two flavours, with different obligations:

    * in a **stuck** history the scheduler observed the operation
      blocking, so the verdict additionally demands a blocking
      justification (``stuck``);
    * in an **open** history (a live recording with indeterminate
      operations — timed-out or connection-dropped calls that may or may
      not have taken effect) nothing was observed to block, so each
      pending operation is simply free to linearize anywhere after its
      call, or nowhere.  ``resolved_pending`` reports how the found
      witness resolved each one: ``True`` means the witness linearized
      it (the operation is assumed to have taken effect), ``False``
      means the witness dropped it.
    """

    result: MonitorResult
    #: blocking justification, run only for stuck histories.
    stuck: StuckMonitorResult | None = None
    #: open-history pending ops paired with "did the witness take it".
    resolved_pending: tuple[tuple[Operation, bool], ...] = ()

    @property
    def ok(self) -> bool:
        return self.result.ok and (self.stuck is None or self.stuck.ok)

    @property
    def failed_pending(self) -> "Operation | None":
        """The unjustified pending operation, when blocking failed."""
        return self.stuck.failed if self.stuck is not None else None


def _resolve_pending(history: History, result: MonitorResult):
    """Pair each pending op with whether the witness linearized it."""
    if not result.ok or result.witness is None:
        return ()
    taken = {op.key for op, _resp in result.witness}
    return tuple(
        (op, op.key in taken) for op in history.pending_operations
    )


def monitor_history(
    history: History,
    model: SequentialModel,
    *,
    engine: str = "auto",
    max_configurations: int | None = None,
) -> MonitorVerdict:
    """Check one history end to end against *model*.

    Stuck histories get the blocking-justification pass on top of the
    linearization check; open histories (pending operations without an
    observed block — the indeterminate-operation regime of live
    recordings) skip it and instead report how the witness resolved each
    pending operation.
    """
    result = check_history_against_model(
        history, model, engine=engine, max_configurations=max_configurations
    )
    stuck: StuckMonitorResult | None = None
    resolved: tuple[tuple[Operation, bool], ...] = ()
    if result.ok and history.stuck:
        stuck = check_stuck_history_model(
            history, model, max_configurations=max_configurations
        )
    elif not history.stuck and history.pending_operations:
        resolved = _resolve_pending(history, result)
    return MonitorVerdict(result=result, stuck=stuck, resolved_pending=resolved)
