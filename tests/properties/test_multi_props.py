"""Property tests for the Theorem 1 projection machinery."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.core.multi import project_object

TARGETS = ["x", "y", None]


@st.composite
def multi_object_histories(draw):
    """Random well-formed multi-object history over targets x / y / default."""
    n_threads = draw(st.integers(1, 3))
    events = []
    counters = {t: 0 for t in range(n_threads)}
    open_ops: dict[int, tuple[int, Invocation]] = {}
    for _ in range(draw(st.integers(0, 10))):
        # Pick a thread; either open a new op or close its open one.
        thread = draw(st.integers(0, n_threads - 1))
        if thread in open_ops and draw(st.booleans()):
            index, _invocation = open_ops.pop(thread)
            events.append(Event.ret(thread, index, Response.of(draw(st.integers(0, 2)))))
        elif thread not in open_ops:
            target = draw(st.sampled_from(TARGETS))
            invocation = Invocation(draw(st.sampled_from(["a", "b"])), (), target)
            index = counters[thread]
            counters[thread] += 1
            open_ops[thread] = (index, invocation)
            events.append(Event.call(thread, index, invocation))
    # Optionally close remaining ops.
    for thread, (index, _invocation) in list(open_ops.items()):
        if draw(st.booleans()):
            events.append(Event.ret(thread, index, Response.of(0)))
            open_ops.pop(thread)
    return History(events, n_threads, stuck=bool(open_ops))


@given(multi_object_histories())
@settings(max_examples=200, deadline=None)
def test_projections_partition_operations(history):
    total = 0
    for target in TARGETS:
        projection = project_object(history, target)
        assert projection.ill_formed_thread is None
        total += len(projection.operations)
        assert all(
            op.invocation.target == target for op in projection.operations
        )
    assert total == len(history.operations)


@given(multi_object_histories())
@settings(max_examples=200, deadline=None)
def test_projection_indices_are_contiguous(history):
    for target in TARGETS:
        projection = project_object(history, target)
        for thread in range(projection.n_threads):
            indices = sorted(
                op.op_index for op in projection.operations if op.thread == thread
            )
            assert indices == list(range(len(indices)))


@given(multi_object_histories())
@settings(max_examples=200, deadline=None)
def test_projection_preserves_precedence(history):
    """e1 <H e2 implies e1 <H|x e2 for ops surviving the projection."""
    for target in TARGETS:
        projection = project_object(history, target)
        # Map original ops to projected ops by order of appearance per thread.
        original = [
            op for op in history.operations if op.invocation.target == target
        ]
        by_thread_original: dict[int, list] = {}
        for op in sorted(original, key=lambda o: (o.thread, o.op_index)):
            by_thread_original.setdefault(op.thread, []).append(op)
        by_thread_projected: dict[int, list] = {}
        for op in sorted(projection.operations, key=lambda o: (o.thread, o.op_index)):
            by_thread_projected.setdefault(op.thread, []).append(op)
        mapping = {}
        for thread, ops in by_thread_original.items():
            for old, new in zip(ops, by_thread_projected.get(thread, [])):
                mapping[old.key] = new
        for a in original:
            for b in original:
                if a is b:
                    continue
                if history.precedes(
                    history.operation_map[a.key], history.operation_map[b.key]
                ):
                    assert projection.precedes(mapping[a.key], mapping[b.key])


@given(multi_object_histories())
@settings(max_examples=200, deadline=None)
def test_projection_stuck_iff_pending_survives(history):
    for target in TARGETS:
        projection = project_object(history, target)
        assert projection.stuck == (
            history.stuck and bool(projection.pending_operations)
        )
