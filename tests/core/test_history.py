"""History structure: operations, precedence, projections, serial form.

Uses the paper's Fig. 2 history as the running example:
    (c set(0) A) (c get B) (c ok A) (c inc A) (c ok(0) B) (c get B) (c ok(1) B)
"""

from __future__ import annotations

import pytest

from repro.core.events import Event, Invocation, Response
from repro.core.history import History, SerialHistory, SerialStep
from tests.core.history_reference import complete_history, is_full, is_serial, to_history


def ev_call(t, i, name, *args):
    return Event.call(t, i, Invocation(name, args))


def ev_ret(t, i, value=None):
    return Event.ret(t, i, Response.of(value))


@pytest.fixture()
def fig2_history() -> History:
    events = [
        ev_call(0, 0, "set", 0),  # (c set(0) A)
        ev_call(1, 0, "get"),     # (c get B)
        ev_ret(0, 0),             # (c ok A)
        ev_call(0, 1, "inc"),     # (c inc A)
        ev_ret(1, 0, 0),          # (c ok(0) B)
        ev_call(1, 1, "get"),     # (c get B)
        ev_ret(1, 1, 1),          # (c ok(1) B)
    ]
    return History(events, n_threads=2)


class TestOperations:
    def test_operation_extraction(self, fig2_history):
        ops = fig2_history.operations
        assert len(ops) == 4
        # in call order: A.set, B.get, A.inc, B.get
        assert [str(o.invocation) for o in ops] == ["set(0)", "get()", "inc()", "get()"]

    def test_pending_operation_detected(self, fig2_history):
        pending = fig2_history.pending_operations
        assert len(pending) == 1
        assert pending[0].invocation == Invocation("inc")

    def test_is_full(self, fig2_history):
        assert not is_full(fig2_history)
        complete = complete_history(fig2_history)
        assert is_full(complete)


class TestStructuralPredicates:
    def test_well_formed(self, fig2_history):
        assert fig2_history.ill_formed_thread is None

    def test_not_well_formed_double_call(self):
        events = [ev_call(0, 0, "a"), ev_call(0, 1, "b")]
        assert History(events, 1).ill_formed_thread is not None

    def test_not_well_formed_return_without_call(self):
        events = [ev_ret(0, 0)]
        assert History(events, 1).ill_formed_thread is not None

    def test_serial_detection(self):
        serial = History([ev_call(0, 0, "a"), ev_ret(0, 0)], 1)
        assert is_serial(serial)
        overlapping = History(
            [ev_call(0, 0, "a"), ev_call(1, 0, "b"), ev_ret(0, 0), ev_ret(1, 0)], 2
        )
        assert not is_serial(overlapping)
        assert overlapping.ill_formed_thread is None

    def test_empty_history_is_serial_and_well_formed(self):
        empty = History([], 2)
        assert is_serial(empty)
        assert empty.ill_formed_thread is None
        assert is_full(empty)

    def test_thread_subhistory(self, fig2_history):
        sub = fig2_history.thread_subhistory(1)
        assert len(sub) == 4
        assert all(e.thread == 1 for e in sub)


class TestDerivedHistories:
    def test_complete_removes_pending_calls(self, fig2_history):
        complete = complete_history(fig2_history)
        assert len(complete.events) == 6
        assert not complete.pending_operations

    def test_project_pending(self):
        # Two pending ops; H[e] keeps only e's call.
        events = [
            ev_call(0, 0, "a"),
            ev_ret(0, 0),
            ev_call(0, 1, "block1"),
            ev_call(1, 0, "block2"),
        ]
        history = History(events, 2, stuck=True)
        e = history.operation_map[(0, 1)]
        projected = history.project_pending(e)
        assert projected.stuck
        keys = {op.key for op in projected.operations}
        assert keys == {(0, 0), (0, 1)}

    def test_project_pending_rejects_complete_op(self, fig2_history):
        complete_op = fig2_history.operation_map[(0, 0)]
        with pytest.raises(ValueError):
            fig2_history.project_pending(complete_op)


class TestPrecedence:
    def test_precedes_and_overlapping(self, fig2_history):
        ops = fig2_history.operation_map
        a_set = ops[(0, 0)]
        a_inc = ops[(0, 1)]
        b_get1 = ops[(1, 0)]
        b_get2 = ops[(1, 1)]
        assert fig2_history.precedes(a_set, b_get2)
        assert fig2_history.precedes(a_set, a_inc)
        assert fig2_history.overlapping(a_set, b_get1)
        assert fig2_history.overlapping(a_inc, b_get2)
        assert not fig2_history.precedes(a_inc, b_get2)  # inc is pending

    def test_pending_precedes_nothing(self, fig2_history):
        inc = fig2_history.operation_map[(0, 1)]
        for op in fig2_history.operations:
            assert not fig2_history.precedes(inc, op)


class TestProfile:
    def test_profile_rows_by_thread(self, fig2_history):
        profile = fig2_history.profile
        assert len(profile) == 2
        assert profile[0] == (
            (Invocation("set", (0,)), Response.of(None)),
            (Invocation("inc"), None),
        )
        assert [resp.value for _, resp in profile[1]] == [0, 1]


class TestSerialHistory:
    def test_to_serial_roundtrip(self):
        history = History(
            [ev_call(0, 0, "a"), ev_ret(0, 0, 1), ev_call(1, 0, "b"), ev_ret(1, 0, 2)],
            2,
        )
        serial = history.to_serial()
        assert len(serial.steps) == 2
        back = to_history(serial, 2)
        assert back.events == history.events

    def test_to_serial_rejects_concurrent(self, fig2_history):
        with pytest.raises(ValueError):
            fig2_history.to_serial()

    def test_stuck_serial_validation(self):
        good = SerialHistory(
            (SerialStep(0, Invocation("take"), None),), stuck=True
        )
        assert good.stuck
        with pytest.raises(ValueError):
            SerialHistory((SerialStep(0, Invocation("take"), None),), stuck=False)
        with pytest.raises(ValueError):
            SerialHistory(
                (
                    SerialStep(0, Invocation("a"), None),
                    SerialStep(0, Invocation("b"), Response.of(1)),
                ),
                stuck=True,
            )

    def test_tokens_include_stuck_marker(self):
        stuck = SerialHistory((SerialStep(0, Invocation("take"), None),), stuck=True)
        assert stuck.tokens()[-1] == "#"

    def test_positions(self):
        serial = SerialHistory(
            (
                SerialStep(0, Invocation("a"), Response.of(None)),
                SerialStep(1, Invocation("b"), Response.of(None)),
                SerialStep(0, Invocation("c"), Response.of(None)),
            )
        )
        assert serial.positions == {(0, 0): 0, (1, 0): 1, (0, 1): 2}

    def test_profile_padding(self):
        serial = SerialHistory((SerialStep(0, Invocation("a"), Response.of(None)),))
        assert serial.profile_for(3) == (
            ((Invocation("a"), Response.of(None)),),
            (),
            (),
        )
