"""Execution fingerprints: canonical hashes and equivalence classes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reduction import (
    FingerprintError,
    FingerprintSet,
    execution_fingerprint,
)
from repro.runtime import DFSStrategy


class TestFingerprintSet:
    def test_add_reports_novelty(self):
        s = FingerprintSet()
        assert s.add("x")
        assert not s.add("x")
        assert s.add("y")
        assert len(s) == 2

    def test_contains(self):
        s = FingerprintSet()
        s.add("x")
        assert "x" in s
        assert "y" not in s

    def test_snapshot_roundtrip_through_json(self):
        s = FingerprintSet()
        s.add("b")
        s.add("a")
        restored = FingerprintSet.from_snapshot(json.loads(json.dumps(s.snapshot())))
        assert len(restored) == 2
        assert "a" in restored and "b" in restored
        assert restored.snapshot() == s.snapshot()

    def test_from_snapshot_none_is_empty(self):
        assert len(FingerprintSet.from_snapshot(None)) == 0


#: Valid digests: non-empty lowercase hex, at most 64 characters (the
#: untruncated sha256 bound the validator enforces).
_digests = st.text(alphabet="0123456789abcdef", min_size=1, max_size=32)
_digest_lists = st.lists(_digests, max_size=20)


class TestFingerprintSetProperties:
    """Algebraic laws of the coverage set, checked with hypothesis.

    The generation corpus, the swarm merge, and the stream watch all
    lean on these: union must behave like set union, snapshots must
    round-trip losslessly, and ``update`` must report exactly the
    classes that were genuinely new.
    """

    @settings(max_examples=200, deadline=None)
    @given(_digest_lists, _digest_lists)
    def test_union_is_commutative_and_matches_set_union(self, a, b):
        ab = FingerprintSet.union([FingerprintSet(a), FingerprintSet(b)])
        ba = FingerprintSet.union([FingerprintSet(b), FingerprintSet(a)])
        assert ab == ba
        assert len(ab) == len(set(a) | set(b))
        assert FingerprintSet(a).issubset(ab)
        assert FingerprintSet(b).issubset(ab)

    @settings(max_examples=200, deadline=None)
    @given(_digest_lists, _digest_lists)
    def test_update_returns_exactly_the_new_classes(self, a, b):
        s = FingerprintSet(a)
        assert s.update(b) == len(set(b) - set(a))
        assert len(s) == len(set(a) | set(b))
        assert s.update(b) == 0  # a second union brings nothing new

    @settings(max_examples=200, deadline=None)
    @given(_digest_lists, _digest_lists)
    def test_subset_iff_union_adds_nothing(self, a, b):
        sa, sb = FingerprintSet(a), FingerprintSet(b)
        assert sa.issubset(sb) == (FingerprintSet(b).update(a) == 0)

    @settings(max_examples=200, deadline=None)
    @given(_digest_lists)
    def test_snapshot_roundtrip_is_lossless(self, digests):
        s = FingerprintSet(digests)
        restored = FingerprintSet.from_snapshot(
            json.loads(json.dumps(s.snapshot()))
        )
        assert restored == s
        assert restored.snapshot() == s.snapshot() == sorted(set(digests))

    @settings(max_examples=200, deadline=None)
    @given(
        _digest_lists,
        st.one_of(
            st.integers(),
            st.booleans(),
            st.none(),
            st.lists(st.integers(), min_size=1),
        ),
    )
    def test_non_string_digest_raises_named_error(self, good, bad):
        with pytest.raises(FingerprintError):
            FingerprintSet.from_snapshot([*good, bad])

    @settings(max_examples=100, deadline=None)
    @given(
        st.text(min_size=1, max_size=80).filter(
            lambda s: not (
                0 < len(s) <= 64 and set(s) <= set("0123456789abcdef")
            )
        )
    )
    def test_malformed_digest_raises_named_error(self, bad):
        with pytest.raises(FingerprintError):
            FingerprintSet.from_snapshot([bad])

    @pytest.mark.parametrize("corrupt", ["abc123", b"abc123", 7, {"not-hex": 1}])
    def test_non_list_snapshot_raises_named_error(self, corrupt):
        # A bare string is itself iterable — the validator must reject
        # it rather than treat each character as a digest.
        with pytest.raises(FingerprintError):
            FingerprintSet.from_snapshot(corrupt)


class TestExecutionFingerprint:
    def _explore(self, scheduler, factory):
        strategy = DFSStrategy(preemption_bound=None)
        outcomes = []
        while strategy.more():
            outcomes.append(scheduler.execute(factory(), strategy))
        return outcomes

    def test_independent_threads_collapse(self, scheduler, runtime):
        # Two threads on disjoint cells: interleavings that only reorder
        # independent accesses share a fingerprint.  (Collapse is not
        # total — steps adjacent to enabled-set changes such as thread
        # termination are conservatively treated as dependent.)
        def factory():
            cells = [runtime.volatile(0), runtime.volatile(0)]

            def mk(tid):
                def body():
                    for _ in range(2):
                        cells[tid].set(cells[tid].get() + 1)

                return body

            return [mk(0), mk(1)]

        outcomes = self._explore(scheduler, factory)
        classes = {execution_fingerprint(o) for o in outcomes}
        assert len(outcomes) > 2 * len(classes)

    def test_conflicting_orders_get_distinct_fingerprints(self, scheduler, runtime):
        # Both orders of two writes to one cell are inequivalent.
        def factory():
            cell = runtime.volatile(0)

            def mk(value):
                def body():
                    cell.set(value)

                return body

            return [mk(1), mk(2)]

        outcomes = self._explore(scheduler, factory)
        fingerprints = {execution_fingerprint(o) for o in outcomes}
        assert len(fingerprints) >= 2

    def test_fingerprint_is_schedule_independent_within_class(self, scheduler, runtime):
        # Classes never exceed executions, and the racy program has at
        # least the write/write and write/read orderings as classes.
        def factory():
            cell = runtime.volatile(0)

            def body():
                cell.set(cell.get() + 1)

            return [body, body]

        outcomes = self._explore(scheduler, factory)
        fingerprints = {execution_fingerprint(o) for o in outcomes}
        assert 2 <= len(fingerprints) <= len(outcomes)
