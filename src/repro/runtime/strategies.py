"""Exploration strategies for the stateless model checker.

These correspond to the search modes of CHESS that the paper relies on:

* :class:`DFSStrategy` — exhaustive depth-first enumeration of the decision
  tree with stateless replay, optionally **preemption-bounded** (the paper
  uses bound 2 for phase 2, no bound for phase 1).  A *preemption* is a
  thread decision that switches away from a thread that was still enabled;
  switches at blocking or completion points are free, matching CHESS's
  iterative context bounding.
* :class:`RandomStrategy` — random walk over the decision tree, used by the
  random sampling mode of Section 4.3.  It continues the running thread
  with high probability and preempts with probability ``preempt_prob``,
  which concentrates the samples on low-preemption schedules where (per the
  small scope hypothesis) most bugs live.
* :class:`ReplayStrategy` — replays one recorded decision sequence, used to
  reproduce a reported violation deterministically.
* :class:`IterativeDFSStrategy` — CHESS's iterative context bounding
  (exhaust preemption bound 0, then 1, ...).
* :class:`PCTStrategy` — probabilistic concurrency testing with priority
  change points, the randomized relative of the prioritized search the
  paper cites (Gambit).
"""

from __future__ import annotations

import random
from typing import Any

from repro.runtime.errors import DecisionReplayError
from repro.runtime.scheduler import Decision, ExecutionOutcome, SchedulingStrategy

__all__ = [
    "DFSStrategy",
    "IterativeDFSStrategy",
    "PCTStrategy",
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


class RandomStrategy(SchedulingStrategy):
    """Random walk sampling of schedules, seeded for reproducibility.

    Runs exactly *executions* random executions.  At thread decisions the
    running thread continues with probability ``1 - preempt_prob``; other
    alternatives (including switches at blocking points, which are free)
    are picked uniformly.  Value decisions are uniform.
    """

    def __init__(
        self,
        executions: int,
        seed: int = 0,
        preempt_prob: float = 0.25,
    ) -> None:
        if executions < 0:
            raise ValueError("executions must be >= 0")
        if not 0.0 <= preempt_prob <= 1.0:
            raise ValueError("preempt_prob must be within [0, 1]")
        self._remaining = executions
        self._rng = random.Random(seed)
        self.preempt_prob = preempt_prob
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
            if others and self._rng.random() < self.preempt_prob:
                return self._rng.choice(others)
            return running
        return self._rng.choice(list(options))

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._remaining -= 1
        self.executions += 1

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "type": "random",
            "remaining": self._remaining,
            "preempt_prob": self.preempt_prob,
            "executions": self.executions,
            "rng": _rng_state_to_json(self._rng),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "RandomStrategy":
        strategy = cls(
            executions=int(snap["remaining"]),
            preempt_prob=snap["preempt_prob"],
        )
        strategy.executions = int(snap["executions"])
        _rng_state_from_json(strategy._rng, snap["rng"])
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


class IterativeDFSStrategy(SchedulingStrategy):
    """Iterative context bounding: exhaust bound 0, then 1, then 2, ...

    This is CHESS's actual search order (Musuvathi & Qadeer, "Iterative
    context bounding for systematic testing of multithreaded programs"):
    schedules with few preemptions are explored first, so the simplest
    witness of a bug is found before the search drowns in high-preemption
    interleavings.  Schedules already covered by a smaller bound are
    re-explored at the larger one — the re-execution cost CHESS also pays
    in exchange for statelessness.
    """

    def __init__(self, max_bound: int = 2, reduction: str = "none") -> None:
        if max_bound < 0:
            raise ValueError("max_bound must be >= 0")
        self.max_bound = max_bound
        self.reduction = reduction
        self.bound = 0
        self._inner = dfs_with_reduction(reduction, preemption_bound=0)
        self._pruned_done = 0
        self.executions = 0

    @property
    def pruned(self) -> int:
        """Schedules pruned by the reduction, across all bounds so far."""
        return self._pruned_done + getattr(self._inner, "pruned", 0)

    def more(self) -> bool:
        while not self._inner.more():
            if self.bound >= self.max_bound:
                return False
            self.bound += 1
            self._pruned_done += getattr(self._inner, "pruned", 0)
            self._inner = dfs_with_reduction(
                self.reduction, preemption_bound=self.bound
            )
        return True

    def begin(self) -> None:
        self._inner.begin()

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        return self._inner.decide(kind, options, running, free)

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._inner.finish(outcome)
        self.executions += 1

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "type": "iterative",
            "max_bound": self.max_bound,
            "reduction": self.reduction,
            "bound": self.bound,
            "pruned_done": self._pruned_done,
            "executions": self.executions,
            "inner": self._inner.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "IterativeDFSStrategy":
        strategy = cls(
            max_bound=int(snap["max_bound"]),
            reduction=snap.get("reduction", "none"),
        )
        strategy.bound = int(snap["bound"])
        strategy._pruned_done = int(snap.get("pruned_done", 0))
        strategy.executions = int(snap["executions"])
        strategy._inner = strategy_from_snapshot(snap["inner"])
        return strategy


class PCTStrategy(SchedulingStrategy):
    """Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010).

    The prioritized-search relative of the Gambit work the paper cites
    for CHESS's search heuristics.  Each execution assigns the logical
    threads random *priorities* and picks ``depth - 1`` random *change
    points*; scheduling always runs the highest-priority enabled thread,
    and crossing a change point demotes the running thread below
    everything else.  For a bug of depth d (d ordering constraints), one
    execution finds it with probability >= 1/(n * k^(d-1)) for n threads
    and k steps — a guarantee random walks lack.

    The step-count estimate ``k`` is learned online from the executions
    seen so far.
    """

    def __init__(self, executions: int, depth: int = 3, seed: int = 0) -> None:
        if executions < 0:
            raise ValueError("executions must be >= 0")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self._remaining = executions
        self.depth = depth
        self._rng = random.Random(seed)
        self._steps_estimate = 32
        self._step = 0
        self._priorities: dict[int, float] = {}
        self._change_points: list[int] = []
        self._demotions = 0
        self.executions = 0

    def more(self) -> bool:
        return self._remaining > 0

    def begin(self) -> None:
        self._step = 0
        self._priorities = {}
        self._demotions = 0
        self._change_points = sorted(
            self._rng.randrange(1, max(2, self._steps_estimate))
            for _ in range(self.depth - 1)
        )

    def _priority(self, thread: int) -> float:
        if thread not in self._priorities:
            self._priorities[thread] = self._rng.random() + 1.0
        return self._priorities[thread]

    def decide(
        self, kind: str, options: tuple, running: int | None, free: bool
    ) -> Any:
        if kind != "thread":
            return self._rng.choice(list(options))
        self._step += 1
        while self._change_points and self._step >= self._change_points[0]:
            self._change_points.pop(0)
            if running is not None:
                # Demote below every base priority (which are all >= 1.0);
                # later demotions go lower still.
                self._demotions += 1
                self._priorities[running] = 1.0 - self._demotions
        return max(options, key=self._priority)

    def finish(self, outcome: ExecutionOutcome) -> None:
        self._remaining -= 1
        self.executions += 1
        # Learn the schedule length for change-point placement.
        self._steps_estimate = max(self._steps_estimate, self._step, 1)

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        # Per-execution state (_priorities, _change_points, ...) is reset
        # by begin(), so only the cross-execution state needs saving.
        return {
            "type": "pct",
            "remaining": self._remaining,
            "depth": self.depth,
            "executions": self.executions,
            "steps_estimate": self._steps_estimate,
            "rng": _rng_state_to_json(self._rng),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "PCTStrategy":
        strategy = cls(executions=int(snap["remaining"]), depth=int(snap["depth"]))
        strategy.executions = int(snap["executions"])
        strategy._steps_estimate = int(snap["steps_estimate"])
        _rng_state_from_json(strategy._rng, snap["rng"])
        return strategy


def _rng_state_to_json(rng: random.Random) -> list:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _rng_state_from_json(rng: random.Random, state: list) -> None:
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))


def dfs_with_reduction(
    reduction: str | None, preemption_bound: int | None
) -> DFSStrategy:
    """A DFS-family strategy with the requested partial-order reduction.

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
    "iterative": IterativeDFSStrategy,
    "random": RandomStrategy,
    "pct": PCTStrategy,
}


def strategy_from_snapshot(snap: dict) -> SchedulingStrategy:
    """Rebuild a strategy from a :meth:`snapshot` dict (checkpoint resume).

    Raises :class:`repro.core.checkpoint.CheckpointError` when the
    snapshot's ``type`` tag is unknown — a checkpoint file written by a
    different (or newer) build is a *checkpoint* problem, not a
    programming error.
    """
    tag = snap.get("type") if isinstance(snap, dict) else None
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
