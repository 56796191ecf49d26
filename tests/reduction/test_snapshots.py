"""Strategy snapshot round-trips for checkpoint/resume, incl. reductions.

Every registered strategy must survive ``snapshot()`` -> JSON ->
``strategy_from_snapshot`` mid-exploration and then explore exactly the
executions the uninterrupted strategy would have — that is the property
``lineup resume`` is built on.  Unknown tags must raise
:class:`CheckpointError` (a file problem, not a programming error).
"""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import CheckpointError
from repro.reduction import DPORStrategy, SleepSetStrategy
from repro.runtime import (
    DFSStrategy,
    RandomStrategy,
    strategy_from_snapshot,
)


def make_strategies():
    return [
        DFSStrategy(preemption_bound=2),
        RandomStrategy(executions=20, seed=7),
        SleepSetStrategy(preemption_bound=2),
        DPORStrategy(preemption_bound=2),
    ]


STRATEGY_IDS = [
    "dfs",
    "random",
    "sleep",
    "dpor",
]


def racy_factory(runtime):
    def factory():
        cell = runtime.volatile(0)

        def body():
            cell.set(cell.get() + 1)

        return [body, body]

    return factory


def roundtrip(strategy):
    return strategy_from_snapshot(json.loads(json.dumps(strategy.snapshot())))


class TestRoundTrips:
    @pytest.mark.parametrize(
        "strategy", make_strategies(), ids=STRATEGY_IDS
    )
    def test_fresh_snapshot_roundtrips(self, strategy):
        restored = roundtrip(strategy)
        assert type(restored) is type(strategy)
        assert restored.snapshot() == strategy.snapshot()

    @pytest.mark.parametrize(
        "make", [s for s in range(len(STRATEGY_IDS))], ids=STRATEGY_IDS
    )
    def test_midrun_resume_matches_uninterrupted(self, scheduler, runtime, make):
        # Run the reference to completion; run a twin for 2 executions,
        # snapshot, restore, finish — the decision sequences must match
        # execution for execution.
        factory = racy_factory(runtime)

        def decisions_of(outcome):
            return tuple(
                (d.kind, d.chosen) for d in outcome.decisions if len(d.options) > 1
            )

        reference = make_strategies()[make]
        expected = []
        while reference.more():
            expected.append(decisions_of(scheduler.execute(factory(), reference)))

        twin = make_strategies()[make]
        observed = []
        for _ in range(2):
            if not twin.more():
                break
            observed.append(decisions_of(scheduler.execute(factory(), twin)))
        restored = roundtrip(twin)
        while restored.more():
            observed.append(decisions_of(scheduler.execute(factory(), restored)))
        assert observed == expected

    def test_reduction_pruned_counter_survives(self, scheduler, runtime):
        factory = racy_factory(runtime)
        strategy = DPORStrategy(preemption_bound=None)
        while strategy.more():
            scheduler.execute(factory(), strategy)
        restored = roundtrip(strategy)
        assert restored.pruned == strategy.pruned


class TestUnknownSnapshots:
    def test_unknown_tag_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError):
            strategy_from_snapshot({"type": "simulated-annealing"})

    def test_non_dict_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError):
            strategy_from_snapshot("dfs")

    def test_missing_type_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError):
            strategy_from_snapshot({"stack": []})

    def test_not_key_error_or_value_error(self):
        # The error contract: checkpoint problems surface as
        # CheckpointError, never as bare KeyError/ValueError.
        try:
            strategy_from_snapshot({"type": "nope"})
        except CheckpointError:
            pass
        except (KeyError, ValueError) as exc:  # pragma: no cover
            pytest.fail(f"expected CheckpointError, got {type(exc).__name__}")
