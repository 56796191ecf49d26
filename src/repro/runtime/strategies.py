"""Exploration strategies for the stateless model checker.

These correspond to the search modes of CHESS that the paper relies on:

* :class:`DFSStrategy` — exhaustive depth-first enumeration of the decision
  tree with stateless replay, optionally **preemption-bounded** (the paper
  uses bound 2 for phase 2, no bound for phase 1).  A *preemption* is a
  thread decision that switches away from a thread that was still enabled;
  switches at blocking or completion points are free, matching CHESS's
  preemption counting.
* :class:`RandomStrategy` — random walk over the decision tree, used by the
  random sampling mode of Section 4.3.  It continues the running thread
  with high probability and preempts with probability
  :data:`PREEMPT_PROBABILITY`, which concentrates the samples on
  low-preemption schedules where (per the small scope hypothesis) most
  bugs live.
* :class:`ReplayStrategy` — replays one recorded decision sequence, used to
  reproduce a reported violation deterministically.
"""

from __future__ import annotations

import random
from typing import Any

from repro.runtime.errors import DecisionReplayError
from repro.runtime.scheduler import Decision, ExecutionOutcome, SchedulingStrategy

__all__ = [
    "DFSStrategy",
    "RandomStrategy",
    "ReplayStrategy",
    "dfs_with_reduction",
    "strategy_from_snapshot",
]


class _Node:
    """One branching decision point on the current DFS path."""

    __slots__ = (
        "kind", "options", "running", "free", "chosen", "tried", "preemptions",
    )

    def __init__(
        self,
        kind: str,
        options: tuple,
        running: int | None,
        free: bool,
        chosen: Any,
        preemptions: int,
    ) -> None:
        self.kind = kind
        self.options = options
        self.running = running
        self.free = free
        self.chosen = chosen
        self.tried = {chosen}
        #: preemptions accumulated strictly before this decision.
        self.preemptions = preemptions

    def is_preemption(self, choice: Any) -> bool:
        """Whether picking *choice* here switches away from a live thread.

        Free decisions (operation boundaries of the harness) never count:
        interleaving whole operations is what the check is enumerating,
        matching the paper's use of preemption bounding only *inside*
        operations."""
        return (
            not self.free
            and self.kind == "thread"
            and self.running is not None
            and self.running in self.options
            and choice != self.running
        )


class DFSStrategy(SchedulingStrategy):
    """Exhaustive stateless DFS over the decision tree.

    The strategy keeps the current path of branching decision points.  The
    first execution follows the default policy (continue the running thread
    when possible, otherwise the lowest-numbered alternative, which adds no
    preemptions).  After each execution it backtracks to the deepest node
    with an untried alternative that fits the preemption budget.

    ``preemption_bound=None`` disables bounding (used for phase 1 so the
    completeness guarantee of Theorem 5 is preserved);
    ``preemption_bound=2`` is the paper's phase-2 default.
    """

    def __init__(self, preemption_bound: int | None = None) -> None:
        if preemption_bound is not None and preemption_bound < 0:
            raise ValueError("preemption_bound must be >= 0 or None")
        self.preemption_bound = preemption_bound
        self._stack: list[_Node] = []
        self._exhausted = False
        self._started = False
        self._depth = 0
        self.executions = 0

    def more(self) -> bool:
        return not self._exhausted

    def begin(self) -> None:
        self._depth = 0
        self._started = True

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        depth = self._depth
        self._depth += 1
        if depth < len(self._stack):
            node = self._stack[depth]
            if node.kind != kind or node.options != options:
                raise DecisionReplayError(
                    f"replay diverged at depth {depth}: expected "
                    f"{node.kind}{node.options!r}, got {kind}{options!r}; "
                    "the code under test is nondeterministic outside the "
                    "instrumented primitives"
                )
            return node.chosen
        chosen = self._default_choice(kind, options, running)
        # A node's count is its parent's plus the parent's current choice:
        # no ancestor's ``chosen`` changes while a deeper node exists.
        preemptions = 0
        if self._stack:
            parent = self._stack[-1]
            preemptions = parent.preemptions + parent.is_preemption(parent.chosen)
        node = self._make_node(kind, options, running, free, chosen, preemptions)
        # The default choice never adds a preemption (it continues the
        # running thread whenever that thread is still an option).
        self._stack.append(node)
        return chosen

    def finish(self, outcome: ExecutionOutcome) -> None:
        self.executions += 1
        self._backtrack()

    def replaying(self) -> bool:
        """Whether the running execution is still on the stack: its next
        branching decision replays one an earlier execution took."""
        return self._depth < len(self._stack)

    # -- internals ----------------------------------------------------

    #: node class used for the DFS stack; reduction strategies override
    #: this with an extended node carrying sleep/backtrack state.
    node_class = _Node
    #: snapshot ``type`` tag; reduction strategies override it.
    snapshot_type = "dfs"

    def _make_node(
        self,
        kind: str,
        options: tuple,
        running: int | None,
        free: bool,
        chosen: Any,
        preemptions: int,
    ) -> _Node:
        return self.node_class(kind, options, running, free, chosen, preemptions)

    @staticmethod
    def _default_choice(kind: str, options: tuple, running: int | None) -> Any:
        if kind == "thread" and running is not None and running in options:
            return running
        return options[0]

    def _budget_left(self, node: _Node) -> int | None:
        if self.preemption_bound is None:
            return None
        return self.preemption_bound - node.preemptions

    def _backtrack(self) -> None:
        while self._stack:
            node = self._stack[-1]
            alternative = self._next_alternative(node)
            if alternative is not None:
                node.chosen = alternative
                node.tried.add(alternative)
                return
            self._on_pop(node)
            self._stack.pop()
        self._exhausted = True

    def _on_pop(self, node: _Node) -> None:
        """Hook: *node* is exhausted and about to leave the stack."""

    def _next_alternative(self, node: _Node) -> Any | None:
        budget = self._budget_left(node)
        for option in node.options:
            if option in node.tried:
                continue
            if budget is not None and node.is_preemption(option) and budget < 1:
                continue
            return option
        return None

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able snapshot of the DFS frontier, taken between executions.

        The stack (post-backtrack) *is* the resume point: replaying its
        chosen prefix reproduces the next unexplored execution, and all
        decision payloads are small integers (thread ids / choice indices),
        so the snapshot round-trips through JSON losslessly.
        """
        return {
            "type": self.snapshot_type,
            "preemption_bound": self.preemption_bound,
            "exhausted": self._exhausted,
            "executions": self.executions,
            "stack": [
                [
                    node.kind,
                    list(node.options),
                    node.running,
                    node.free,
                    node.chosen,
                    sorted(node.tried),
                    node.preemptions,
                ]
                for node in self._stack
            ],
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "DFSStrategy":
        strategy = cls(preemption_bound=snap["preemption_bound"])
        strategy._exhausted = bool(snap["exhausted"])
        strategy.executions = int(snap["executions"])
        for kind, options, running, free, chosen, tried, preemptions in snap[
            "stack"
        ]:
            node = cls.node_class(
                kind, tuple(options), running, free, chosen, preemptions
            )
            node.tried = set(tried)
            strategy._stack.append(node)
        return strategy


#: The chance that a random walk switches away from a running thread
#: that could go on (:class:`RandomStrategy`).
PREEMPT_PROBABILITY = 0.25


class RandomStrategy(SchedulingStrategy):
    """Random walk sampling of schedules, seeded for reproducibility.

    Runs exactly *executions* random executions.  At thread decisions the
    running thread continues with probability ``1 - PREEMPT_PROBABILITY``;
    other alternatives (including switches at blocking points, which are
    free) are picked uniformly.  Value decisions are uniform.
    """

    def __init__(self, executions: int, seed: int = 0) -> None:
        if executions < 0:
            raise ValueError("executions must be >= 0")
        self._remaining = executions
        self._rng = random.Random(seed)
        self.executions = 0

    def more(self) -> bool:
        return self._remaining > 0

    def begin(self) -> None:
        pass

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        if free:
            # Operation boundary: interleave whole operations uniformly.
            return self._rng.choice(list(options))
        if kind == "thread" and running is not None and running in options:
            others = [o for o in options if o != running]
            if others and self._rng.random() < PREEMPT_PROBABILITY:
                return self._rng.choice(others)
            return running
        return self._rng.choice(list(options))

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._remaining -= 1
        self.executions += 1

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        version, internal, gauss_next = self._rng.getstate()
        return {
            "type": "random",
            "remaining": self._remaining,
            "executions": self.executions,
            "rng": [version, list(internal), gauss_next],
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "RandomStrategy":
        strategy = cls(executions=int(snap["remaining"]))
        strategy.executions = int(snap["executions"])
        version, internal, gauss_next = snap["rng"]
        strategy._rng.setstate((version, tuple(internal), gauss_next))
        return strategy


class ReplayStrategy(SchedulingStrategy):
    """Replay one recorded decision sequence (for violation reproduction)."""

    def __init__(self, decisions: list[Decision]) -> None:
        # Only branching decisions reach the strategy; forced single-option
        # decisions are recorded in outcomes but recomputed during replay.
        self._script = [d for d in decisions if len(d.options) > 1]
        self._index = 0
        self._done = False

    def more(self) -> bool:
        return not self._done

    def begin(self) -> None:
        self._index = 0

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        if self._index >= len(self._script):
            raise DecisionReplayError(
                "replay script exhausted: execution has more decision points "
                "than the recorded one"
            )
        decision = self._script[self._index]
        self._index += 1
        if decision.kind != kind or decision.options != options:
            raise DecisionReplayError(
                f"replay diverged at decision {self._index - 1}: recorded "
                f"{decision.kind}{decision.options!r}, got {kind}{options!r}"
            )
        return decision.chosen

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._done = True


def dfs_with_reduction(
    reduction: str | None, preemption_bound: int | None
) -> DFSStrategy:
    """A DFS strategy with the requested partial-order reduction.

    ``reduction`` is ``none``/``None`` (plain DFS), ``sleep`` (sleep
    sets), or ``dpor`` (dynamic partial-order reduction).  The reduction
    classes live in :mod:`repro.reduction`, which imports this module, so
    they are imported lazily here.
    """
    if reduction in (None, "none"):
        return DFSStrategy(preemption_bound=preemption_bound)
    from repro.reduction import DPORStrategy, SleepSetStrategy

    if reduction == "sleep":
        return SleepSetStrategy(preemption_bound=preemption_bound)
    if reduction == "dpor":
        return DPORStrategy(preemption_bound=preemption_bound)
    raise ValueError(f"unknown reduction: {reduction!r} (use none, sleep, dpor)")


#: Snapshot ``type`` tag -> strategy class, for checkpoint restoration.
#: The reduction strategies register lazily (they live in a package that
#: imports this one).
_SNAPSHOT_TYPES = {
    "dfs": DFSStrategy,
    "random": RandomStrategy,
}


def refuse_retired(name: object) -> None:
    """Raise the one :class:`repro.core.checkpoint.CheckpointError` for a
    checkpoint whose config or strategy snapshot names a phase-2 sampler
    earlier builds had: PCT or iterative context bounding (EXPERIMENTS.md,
    "Detection count", has the measurement that retired them)."""
    if name in ("iterative", "pct"):
        from repro.core.checkpoint import CheckpointError

        raise CheckpointError(
            f"this checkpoint explores with the retired phase-2 strategy "
            f"{name!r}; this build cannot resume it (run the check again "
            "with --strategy dfs or random)"
        )


def strategy_from_snapshot(snap: dict) -> SchedulingStrategy:
    """Rebuild a strategy from a :meth:`snapshot` dict (checkpoint resume).

    Raises :class:`repro.core.checkpoint.CheckpointError` when the
    snapshot's ``type`` tag is retired or unknown — a checkpoint file
    written by a different build is a *checkpoint* problem, not a
    programming error.
    """
    tag = snap.get("type") if isinstance(snap, dict) else None
    refuse_retired(tag)
    cls = _SNAPSHOT_TYPES.get(tag)
    if cls is None and tag in ("sleep", "dpor"):
        from repro.reduction import DPORStrategy, SleepSetStrategy

        _SNAPSHOT_TYPES.setdefault("sleep", SleepSetStrategy)
        _SNAPSHOT_TYPES.setdefault("dpor", DPORStrategy)
        cls = _SNAPSHOT_TYPES[tag]
    if cls is None and tag == "shard":
        from repro.swarm.strategy import ShardStrategy

        _SNAPSHOT_TYPES.setdefault("shard", ShardStrategy)
        cls = _SNAPSHOT_TYPES[tag]
    if cls is None:
        from repro.core.checkpoint import CheckpointError

        raise CheckpointError(f"unknown strategy snapshot: {snap!r:.80}")
    return cls.from_snapshot(snap)
