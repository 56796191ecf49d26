"""The Wing–Gong–Lowe linearization search against an explicit model.

Given one concurrent :class:`~repro.core.history.History` and a
:class:`~repro.monitor.models.SequentialModel`, decide whether some
linearization of the history is an execution of the model:

* a total order of the operations extending the precedence order ``<H``
  and respecting per-thread program order (both are implied by choosing,
  at every step, only *minimal* operations — ones no unlinearized
  operation precedes), in which
* every completed operation's observed response equals the model's, and
* pending operations either take effect at some point (with whatever
  response the model computes — it was never observed) or not at all.

The search is the classical WGL depth-first enumeration with the
**configuration cache**: a configuration is the pair ``(set of
linearized operations, model state)``, and a configuration that failed
once fails always, so each is explored at most once.  The cache is what
turns the factorial naive search into one bounded by the number of
reachable configurations — and is why model states must be hashable.

``check_stuck_history_model`` is the blocking-aware complement (the
monitor's analogue of the paper's Definition 2): each pending operation
``e`` of a stuck history needs a reachable configuration, with all
completed operations of ``H[e]`` linearized, in which the model *blocks*
on ``e``'s invocation — the justification that ``e`` is allowed to hang
there.  For total models (queue, dict, …) nothing ever blocks, so every
stuck history is a violation, which is exactly the missed-wakeup /
deadlock check.

On failure the search reports the deepest linearizable prefix it found
and the frontier it got stuck at — the minimal counterexample rendered
by :func:`repro.core.explain.diagnose_monitor_failure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.events import Operation, Response, plain_response
from repro.core.history import History
from repro.monitor.incremental import MonitorLimitError
from repro.monitor.models import SequentialModel

__all__ = [
    "MonitorCounterexample",
    "MonitorLimitError",
    "MonitorResult",
    "StuckMonitorResult",
    "check_stuck_history_model",
    "wgl_check",
]


@dataclass(frozen=True)
class MonitorCounterexample:
    """Why no linearization exists: the deepest failure the search saw.

    ``prefix`` is the longest linearizable prefix found — pairs of
    (operation, the response the model gave there).  ``frontier`` lists
    the minimal operations available after that prefix, each with the
    response the model *would* produce (None when it blocks) — for a
    completed operation, disagreeing with the observed response is the
    reason that branch died.
    """

    prefix: tuple[tuple[Operation, Response], ...]
    frontier: tuple[tuple[Operation, Response | None], ...]
    state: Any

    def describe(self) -> str:
        lines: list[str] = []
        if self.prefix or self.frontier:
            placed = ", ".join(str(op) for op, _resp in self.prefix) or "(empty)"
            lines.append(f"deepest linearizable prefix: {placed}")
            for op, expected in self.frontier:
                want = "block" if expected is None else str(expected)
                got = "blocked" if op.response is None else str(op.response)
                lines.append(f"  next {op}: model would {want}, observed {got}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MonitorResult:
    """Verdict of one history against one model."""

    ok: bool
    engine: str  #: always "wgl"
    configurations: int  #: configurations explored (the cache size)
    witness: tuple[tuple[Operation, Response], ...] | None = None
    counterexample: MonitorCounterexample | None = None


@dataclass(frozen=True)
class StuckMonitorResult:
    """Blocking check of a stuck history: the first unjustified pending op."""

    failed: Operation | None
    configurations: int = 0

    @property
    def ok(self) -> bool:
        return self.failed is None


def _predecessors(ops: tuple[Operation, ...]) -> dict[tuple[int, int], frozenset]:
    """For each operation, the keys of the operations that ``<H`` it.

    Program order is a special case: earlier ops of the same thread
    return before later ones are called, so it is already contained in
    ``<H`` for well-formed histories.
    """
    preds: dict[tuple[int, int], frozenset] = {}
    for b in ops:
        before = frozenset(
            a.key
            for a in ops
            if a.return_pos is not None and a.return_pos < b.call_pos
        )
        preds[b.key] = before
    return preds


def _observed_answers(ops: tuple[Operation, ...]) -> list[tuple]:
    """Each operation, its key and the plain answer observed (None: pending)."""
    return [
        (op, op.key, None if op.response is None else plain_response(op.response))
        for op in ops
    ]


def wgl_check(
    history: History,
    model: SequentialModel,
    *,
    max_configurations: int | None = None,
) -> MonitorResult:
    """Decide whether *history* linearizes to an execution of *model*."""
    ops = history.operations
    preds = _predecessors(ops)
    observed = _observed_answers(ops)
    step = model.step
    complete_keys = frozenset(op.key for op in ops if op.complete)
    initial = model.initial_state()

    seen: set[tuple[frozenset, Any]] = set()
    # Each frame: (linearized keys, model state, prefix of (op, response)).
    stack: list[tuple[frozenset, Any, tuple]] = [(frozenset(), initial, ())]
    best: tuple = ()
    best_state: Any = initial
    best_linearized: frozenset = frozenset()
    while stack:
        linearized, state, prefix = stack.pop()
        key = (linearized, state)
        if key in seen:
            continue
        seen.add(key)
        if max_configurations is not None and len(seen) > max_configurations:
            raise MonitorLimitError(
                f"linearization search exceeded {max_configurations} "
                "configurations"
            )
        if complete_keys <= linearized:
            return MonitorResult(
                ok=True,
                engine="wgl",
                configurations=len(seen),
                witness=prefix,
            )
        if len(prefix) > len(best):
            best, best_state, best_linearized = prefix, state, linearized
        for op, op_key, seen_answer in observed:
            if op_key in linearized or not preds[op_key] <= linearized:
                continue
            new_state, answer = step(state, op.invocation)
            if answer is None:
                continue  # the model blocks here; this op cannot take effect
            if seen_answer is not None and answer != seen_answer:
                continue  # observed response contradicts the model
            placed = prefix + ((op, Response(*answer)),)
            stack.append((linearized | {op_key}, new_state, placed))
    frontier = []
    for op in ops:
        if op.key not in best_linearized and preds[op.key] <= best_linearized:
            answer = step(best_state, op.invocation)[1]
            frontier.append((op, None if answer is None else Response(*answer)))
    return MonitorResult(
        ok=False,
        engine="wgl",
        configurations=len(seen),
        counterexample=MonitorCounterexample(
            prefix=best, frontier=tuple(frontier), state=best_state
        ),
    )


def check_stuck_history_model(
    history: History,
    model: SequentialModel,
    *,
    max_configurations: int | None = None,
) -> StuckMonitorResult:
    """Blocking check: every pending op needs a configuration that blocks it.

    The monitor analogue of Definition 2: for each pending operation
    ``e``, search the projected history ``H[e]`` for a linearization of
    all *completed* operations after which ``model.step`` blocks on
    ``e``'s invocation.  The first pending operation without one is the
    violation.
    """
    total = 0
    for pending in history.pending_operations:
        projected = history.project_pending(pending)
        found, configurations = _blocks_somewhere(
            projected, pending, model, max_configurations
        )
        total += configurations
        if not found:
            return StuckMonitorResult(failed=pending, configurations=total)
    return StuckMonitorResult(failed=None, configurations=total)


def _blocks_somewhere(
    projected: History,
    pending: Operation,
    model: SequentialModel,
    max_configurations: int | None,
) -> tuple[bool, int]:
    """Whether some full linearization of *projected*'s completed ops
    reaches a state in which *pending*'s invocation blocks."""
    observed = _observed_answers(projected.complete_operations)
    preds = _predecessors(projected.operations)
    target = frozenset(op_key for _op, op_key, _answer in observed)
    step = model.step
    seen: set[tuple[frozenset, Any]] = set()
    stack: list[tuple[frozenset, Any]] = [(frozenset(), model.initial_state())]
    while stack:
        linearized, state = stack.pop()
        key = (linearized, state)
        if key in seen:
            continue
        seen.add(key)
        if max_configurations is not None and len(seen) > max_configurations:
            raise MonitorLimitError(
                f"blocking search exceeded {max_configurations} configurations"
            )
        if linearized == target:
            if step(state, pending.invocation)[1] is None:
                return True, len(seen)
            continue
        for op, op_key, seen_answer in observed:
            if op_key in linearized or not preds[op_key] <= linearized:
                continue
            new_state, answer = step(state, op.invocation)
            if answer is None or answer != seen_answer:
                continue
            stack.append((linearized | {op_key}, new_state))
    return False, len(seen)
