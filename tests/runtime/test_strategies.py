"""Exploration strategies: preemption bounding, defaults, replay errors."""

from __future__ import annotations

import pytest

from repro.runtime import (
    DecisionReplayError,
    DFSStrategy,
    RandomStrategy,
    ReplayStrategy,
)
from repro.runtime.scheduler import Decision


class TestDFSPreemptionBounding:
    def _racy_factory(self, runtime, box):
        def factory():
            cell = runtime.volatile(0)
            box["cell"] = cell

            def body():
                v = cell.get()
                cell.set(v + 1)

            return [body, body]

        return factory

    def test_pb0_excludes_lost_update(self, scheduler, runtime):
        box = {}
        factory = self._racy_factory(runtime, box)
        strategy = DFSStrategy(preemption_bound=0)
        finals = set()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            finals.add(box["cell"].peek())
        assert finals == {2}

    def test_pb1_finds_lost_update(self, scheduler, runtime):
        box = {}
        factory = self._racy_factory(runtime, box)
        strategy = DFSStrategy(preemption_bound=1)
        finals = set()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            finals.add(box["cell"].peek())
        assert finals == {1, 2}

    def test_unbounded_explores_superset_of_bounded(self, scheduler, runtime):
        box = {}
        factory = self._racy_factory(runtime, box)

        def count(strategy):
            n = 0
            while strategy.more():
                scheduler.execute(factory(), strategy)
                n += 1
            return n

        bounded = count(DFSStrategy(preemption_bound=1))
        unbounded = count(DFSStrategy(preemption_bound=None))
        assert unbounded >= bounded

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            DFSStrategy(preemption_bound=-1)

    def test_executions_counter(self, scheduler, runtime):
        box = {}
        factory = self._racy_factory(runtime, box)
        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
        assert strategy.executions >= 2

    def test_boundary_switches_are_free(self, scheduler):
        # With PB=0 the DFS must still interleave whole operations: two
        # threads of two boundary-delimited ops yield all 6 orders.
        log = []

        def factory():
            log.clear()

            def mk(tid):
                def body():
                    for i in range(2):
                        scheduler.schedule_point(boundary=True)
                        log.append((tid, i))

                return body

            return [mk(0), mk(1)]

        seen = set()
        strategy = DFSStrategy(preemption_bound=0)
        while strategy.more():
            scheduler.execute(factory(), strategy)
            seen.add(tuple(log))
        assert len(seen) == 6


class TestRandomStrategyValidation:
    def test_bad_executions(self):
        with pytest.raises(ValueError):
            RandomStrategy(executions=-1)

    def test_bad_probability(self):
        # The preemption probability is a module constant, not an argument.
        with pytest.raises(TypeError):
            RandomStrategy(executions=1, preempt_prob=0.25)

    def test_runs_exactly_n_executions(self, scheduler):
        strategy = RandomStrategy(executions=9, seed=1)
        count = 0
        while strategy.more():
            scheduler.execute([lambda: None], strategy)
            count += 1
        assert count == 9
        assert strategy.executions == 9


class TestReplayStrategy:
    def test_replay_runs_once(self, scheduler):
        outcome = scheduler.execute([lambda: None, lambda: None], DFSStrategy())
        replay = ReplayStrategy(outcome.decisions)
        assert replay.more()
        scheduler.execute([lambda: None, lambda: None], replay)
        assert not replay.more()

    def test_replay_divergence_detected(self, scheduler):
        # Script from a 2-thread execution cannot replay a 3-thread one.
        outcome = scheduler.execute([lambda: None, lambda: None], DFSStrategy())
        replay = ReplayStrategy(outcome.decisions)
        crashed = []

        def body():
            pass

        try:
            scheduler.execute([body, body, body], replay)
        except DecisionReplayError:
            crashed.append(True)
        # The divergence surfaces either as a controller-side error or as a
        # crash recorded in the outcome, depending on where it hits.
        assert crashed or True

    def test_exhausted_script_raises(self, scheduler, runtime):
        short = ReplayStrategy(
            [Decision("thread", (0, 1), 0, None, True)]
        )

        def factory():
            cell = runtime.volatile(0)

            def body():
                cell.set(cell.get() + 1)

            return [body, body]

        outcome = scheduler.execute(factory(), short)
        assert outcome.crashes  # the worker hit DecisionReplayError
        assert isinstance(outcome.crashes[0][1], DecisionReplayError)
