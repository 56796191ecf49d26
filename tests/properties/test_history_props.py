"""Property-based tests for the history model (hypothesis).

Strategy: generate random well-formed histories by interleaving per-thread
operation sequences, then check the structural invariants the paper's
definitions rely on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from tests.core.history_reference import complete_history

METHODS = ["a", "b", "c"]


@st.composite
def well_formed_histories(draw):
    """Random well-formed history: random interleaving of per-thread ops,
    with a random suffix of operations left pending."""
    n_threads = draw(st.integers(1, 3))
    ops_per_thread = [draw(st.integers(0, 3)) for _ in range(n_threads)]
    # tokens: (thread, op_index, phase) with phase 0=call 1=return
    pending = {}
    for t in range(n_threads):
        if ops_per_thread[t]:
            # the final op of a thread may be pending
            pending[t] = draw(st.booleans())
    tokens = []
    for t in range(n_threads):
        for i in range(ops_per_thread[t]):
            tokens.append((t, i, 0))
            last = i == ops_per_thread[t] - 1
            if not (last and pending.get(t)):
                tokens.append((t, i, 1))
    # Random interleaving respecting per-thread order.
    order = draw(st.permutations(range(len(tokens))))
    # Stable-sort trick: sort tokens by (per-thread position) within the
    # permuted global order, i.e. repeatedly pick the earliest available.
    remaining = {t: 0 for t in range(n_threads)}  # next token index per thread
    per_thread = {t: [tok for tok in tokens if tok[0] == t] for t in range(n_threads)}
    events = []
    choice_seq = list(order)
    while any(remaining[t] < len(per_thread[t]) for t in range(n_threads)):
        avail = [t for t in range(n_threads) if remaining[t] < len(per_thread[t])]
        pick = avail[choice_seq.pop(0) % len(avail)] if choice_seq else avail[0]
        t_, i_, phase = per_thread[pick][remaining[pick]]
        remaining[pick] += 1
        if phase == 0:
            events.append(Event.call(t_, i_, Invocation(METHODS[i_ % len(METHODS)])))
        else:
            events.append(Event.ret(t_, i_, Response.of(i_)))
    any_pending = any(pending.get(t) and ops_per_thread[t] for t in range(n_threads))
    return History(events, n_threads, stuck=draw(st.booleans()) and any_pending)


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_generated_histories_are_well_formed(history):
    assert history.ill_formed_thread is None


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_complete_removes_exactly_pending(history):
    complete = complete_history(history)
    assert complete.ill_formed_thread is None
    assert not complete.pending_operations
    assert len(complete.operations) == len(history.complete_operations)


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_precedence_is_irreflexive_and_transitive(history):
    ops = history.operations
    for a in ops:
        assert not history.precedes(a, a)
    for a in ops:
        for b in ops:
            for c in ops:
                if history.precedes(a, b) and history.precedes(b, c):
                    assert history.precedes(a, c)


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_precedence_antisymmetric(history):
    ops = history.operations
    for a in ops:
        for b in ops:
            if a is not b:
                assert not (history.precedes(a, b) and history.precedes(b, a))


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_pending_ops_precede_nothing(history):
    for pending_op in history.pending_operations:
        for other in history.operations:
            assert not history.precedes(pending_op, other)


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_profile_partitions_operations(history):
    profile = history.profile
    assert sum(len(row) for row in profile) == len(history.operations)
    for thread, row in enumerate(profile):
        thread_ops = [op for op in history.operations if op.thread == thread]
        assert len(row) == len(thread_ops)
        # program order within the row
        for (inv, _resp), op in zip(row, sorted(thread_ops, key=lambda o: o.op_index)):
            assert inv == op.invocation


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_projection_keeps_single_pending(history):
    for pending_op in history.pending_operations:
        projected = history.project_pending(pending_op)
        assert projected.stuck
        assert [op.key for op in projected.pending_operations] == [pending_op.key]
        # complete operations survive untouched
        assert {op.key for op in projected.complete_operations} == {
            op.key for op in history.complete_operations
        }


@given(well_formed_histories())
@settings(max_examples=200, deadline=None)
def test_thread_subhistories_partition_events(history):
    total = sum(len(history.thread_subhistory(t)) for t in range(history.n_threads))
    assert total == len(history.events)
