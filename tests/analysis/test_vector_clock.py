"""Vector clock algebra."""

from __future__ import annotations

from repro.analysis import VectorClock


class TestBasics:
    def test_empty_clock_is_zero(self):
        vc = VectorClock()
        assert vc.get(0) == 0
        assert vc.get(99) == 0

    def test_tick_increments_one_component(self):
        vc = VectorClock().tick(1).tick(1).tick(2)
        assert vc.get(1) == 2
        assert vc.get(2) == 1
        assert vc.get(0) == 0

    def test_tick_is_persistent_style(self):
        base = VectorClock()
        ticked = base.tick(0)
        assert base.get(0) == 0
        assert ticked.get(0) == 1

    def test_join_is_pointwise_max(self):
        a = VectorClock({0: 3, 1: 1})
        b = VectorClock({1: 5, 2: 2})
        joined = a.join(b)
        assert joined.get(0) == 3
        assert joined.get(1) == 5
        assert joined.get(2) == 2


class TestOrdering:
    def test_happens_before_reflexive(self):
        vc = VectorClock({0: 1})
        assert vc.happens_before(vc)

    def test_happens_before_strict(self):
        early = VectorClock({0: 1})
        late = VectorClock({0: 2, 1: 1})
        assert early.happens_before(late)
        assert not late.happens_before(early)

    def test_concurrent_clocks(self):
        a = VectorClock({0: 1})
        b = VectorClock({1: 1})
        assert not a.happens_before(b)
        assert not b.happens_before(a)

    def test_join_dominates_both(self):
        a = VectorClock({0: 2})
        b = VectorClock({1: 3})
        j = a.join(b)
        assert a.happens_before(j)
        assert b.happens_before(j)

    def test_equality_ignores_zero_components(self):
        assert VectorClock({0: 1, 1: 0}) == VectorClock({0: 1})
        assert hash(VectorClock({0: 1, 1: 0})) == hash(VectorClock({0: 1}))
