"""Internals of the relaxed checker: test/history reduction."""

from __future__ import annotations

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.core.relaxed import _reduced_history, _reduced_test
from repro.core.testcase import FiniteTest


def _inv(name, *args):
    return Invocation(name, args)


A, B, C, D = _inv("a"), _inv("b"), _inv("c"), _inv("d")


class TestReducedTest:
    def test_remove_from_plain_column(self):
        test = FiniteTest.of([[A, B], [C, D]])
        reduced = _reduced_test(test, frozenset({(1, 0)}))
        assert reduced.columns == ((A, B), (D,))

    def test_remove_multiple_same_column(self):
        test = FiniteTest.of([[A, B, C]])
        reduced = _reduced_test(test, frozenset({(0, 0), (0, 2)}))
        assert reduced.columns == ((B,),)

    def test_thread0_numbering_spans_init_column_final(self):
        # thread 0's per-thread op indices: init ops, then column, then final.
        test = FiniteTest.of([[B], [C]], init=[A], final=[D])
        # index 0 -> init A, index 1 -> column B, index 2 -> final D.
        assert _reduced_test(test, frozenset({(0, 0)})).init == ()
        assert _reduced_test(test, frozenset({(0, 1)})).columns[0] == ()
        assert _reduced_test(test, frozenset({(0, 2)})).final == ()

    def test_other_threads_unaffected_by_init(self):
        test = FiniteTest.of([[B], [C, D]], init=[A])
        reduced = _reduced_test(test, frozenset({(1, 1)}))
        assert reduced.columns == ((B,), (C,))
        assert reduced.init == (A,)


class TestReducedHistory:
    def _history(self):
        events = [
            Event.call(0, 0, A), Event.ret(0, 0, Response.of(1)),
            Event.call(1, 0, C), Event.ret(1, 0, Response.of(3)),
            Event.call(0, 1, B), Event.ret(0, 1, Response.of(2)),
            Event.call(1, 1, D), Event.ret(1, 1, Response.of(4)),
        ]
        return History(events, 2)

    def test_removal_renumbers_later_ops(self):
        history = self._history()
        reduced = _reduced_history(history, frozenset({(0, 0)}))
        assert reduced.ill_formed_thread is None
        ops = {op.key: op.invocation for op in reduced.operations}
        # B slid down to index 0 on thread 0; thread 1 untouched.
        assert ops == {(0, 0): B, (1, 0): C, (1, 1): D}

    def test_order_of_remaining_events_preserved(self):
        history = self._history()
        reduced = _reduced_history(history, frozenset({(1, 0)}))
        names = [
            event.invocation.method
            for event in reduced.events
            if event.is_call
        ]
        assert names == ["a", "b", "d"]

    def test_empty_removal_is_identity(self):
        history = self._history()
        reduced = _reduced_history(history, frozenset())
        assert reduced.events == history.events

    def test_stuck_flag_preserved(self):
        events = [
            Event.call(0, 0, A), Event.ret(0, 0, Response.of(1)),
            Event.call(1, 0, C),  # pending
        ]
        history = History(events, 2, stuck=True)
        reduced = _reduced_history(history, frozenset({(0, 0)}))
        assert reduced.stuck
        assert reduced.pending_operations
