"""The end-of-history step equals the stuck-history search it replaced.

A stuck history's pending operation ``e`` is justified iff some
linearization of the completed operations of ``H[e]`` leaves the model
blocking ``e`` (Definition 2).  The online engine answers from the empty
linearized-map bucket (:meth:`IncrementalChecker.justify`); the reference
:func:`check_stuck_history_model` searches ``H[e]`` anew per pending
operation.  Both must name the same first unjustified operation — on
random stuck histories over every model with a blocking method, a queue
whose compact states must be expanded among them, and on every stuck
history the bug suite's blocking root causes explore.  For a
partitionable model the verdicts must agree; the operation named may
differ, since the stream judges cell by cell.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemUnderTest, TestHarness
from repro.core.events import RAISED, Event, Invocation, Response
from repro.core.history import History
from repro.monitor import SequentialModel, get_model, monitor_history
from repro.monitor.dispatch import replay
from repro.monitor.incremental import IncrementalChecker
from repro.monitor.models import QueueModel
from repro.monitor.wgl import check_stuck_history_model, wgl_check
from repro.runtime import DFSStrategy
from repro.structures.registry import get_class


def _ok(state, value=None):
    return state, ("ok", value)


class BlockingQueueModel(QueueModel):
    """The queue plus a bounded buffer's blocking pair: ``Take`` blocks
    while the queue is empty, ``Put(v)`` while it holds two values."""

    name = "blocking-queue"

    def step(self, state, invocation):
        if invocation.method == "Take":
            return (state, None) if not state else _ok(state[1:], state[0])
        if invocation.method == "Put":
            if len(state) >= 2:
                return state, None
            return _ok(state + (self._arg(invocation),))
        return super().step(state, invocation)


class ManualResetEventModel(SequentialModel):
    """``ManualResetEvent`` (root cause A): ``Wait`` blocks while reset."""

    name = "manual-reset-event"

    def initial_state(self):
        return False

    def step(self, state, invocation):
        method = invocation.method
        if method in ("Set", "Reset"):
            return _ok(method == "Set")
        if method == "Wait":
            return _ok(state) if state else (state, None)
        if method == "IsSet":
            return _ok(state, state)
        raise self._bad(invocation)


class CountdownEventModel(SequentialModel):
    """``CountdownEvent`` from 2 (root cause C): ``Wait`` blocks above 0."""

    name = "countdown-event"

    def initial_state(self):
        return 2

    def step(self, state, invocation):
        method = invocation.method
        if method == "Signal":
            n = invocation.args[0] if invocation.args else 1
            if state < n:
                return state, (RAISED, "InvalidOperation")
            return _ok(state - n, state == n)
        if method == "Wait":
            return _ok(state) if state == 0 else (state, None)
        if method == "CurrentCount":
            return _ok(state, state)
        raise self._bad(invocation)


class MailboxModel(SequentialModel):
    """Per-key mailboxes: ``Put(k, v)`` fills box ``k``; ``Take(k)``
    empties it and blocks while it is empty.  Partitionable and blocking
    at once, which no shipped model is: the stream splits it per key,
    and the end-of-history step judges each cell on its own."""

    name = "mailbox"
    partitionable = True
    _PER_CELL = frozenset({"Put", "Take"})

    def initial_state(self):
        return frozenset()

    def step(self, state, invocation):
        boxes = dict(state)
        key = self._arg(invocation)
        if invocation.method == "Put":
            boxes[key] = self._arg(invocation, 1)
            return _ok(frozenset(boxes.items()))
        if invocation.method == "Take":
            if key not in boxes:
                return state, None
            value = boxes.pop(key)
            return _ok(frozenset(boxes.items()), value)
        raise self._bad(invocation)


def inv(method, *args):
    return Invocation(method, args)


#: Every model with a blocking method, and an alphabet that reaches it.
BLOCKING = {
    "counter": (get_model("counter"), [inv("inc"), inv("dec"), inv("get")]),
    "blocking-queue": (
        BlockingQueueModel(),
        [inv("Enqueue", 1), inv("Enqueue", 2), inv("TryDequeue"), inv("Take"),
         inv("Put", 3)],
    ),
    "manual-reset-event": (
        ManualResetEventModel(),
        [inv("Set"), inv("Reset"), inv("Wait"), inv("IsSet")],
    ),
    "countdown-event": (
        CountdownEventModel(),
        [inv("Signal", 1), inv("Wait"), inv("CurrentCount")],
    ),
    "mailbox": (
        MailboxModel(),
        [inv("Put", "a", 1), inv("Put", "b", 2), inv("Take", "a"),
         inv("Take", "b")],
    ),
}


def simulate(draw, model, alphabet) -> History:
    """A stuck history with 1–3 pending operations.

    Two or three threads run random scripts; each step calls an idle
    thread's next operation, makes an open one take effect (if the model
    lets it now), or returns one that took effect — sometimes with a
    wrong answer.  Operations still open when no step is possible, or
    when the run is cut short, are pending: blocked ones are justified
    by the run itself, the others are not.
    """
    threads = draw(st.integers(2, 3))
    scripts = [
        draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=3))
        for _ in range(threads)
    ]
    state = model.initial_state()
    events: list[Event] = []
    calls = [0] * threads
    open_ops: dict[int, list] = {}  #: thread -> [invocation, answer]
    while draw(st.integers(0, 15)):  # 0 cuts the run short
        steps = []
        for thread in range(threads):
            entry = open_ops.get(thread)
            if entry is None:
                if calls[thread] < len(scripts[thread]):
                    steps.append(("call", thread))
            elif entry[1] is not None:
                steps.append(("return", thread))
            elif model.step(state, entry[0])[1] is not None:
                steps.append(("effect", thread))
        if not steps:
            break
        kind, thread = draw(st.sampled_from(steps))
        if kind == "call":
            invocation = scripts[thread][calls[thread]]
            events.append(Event.call(thread, calls[thread], invocation))
            open_ops[thread] = [invocation, None]
        elif kind == "effect":
            state, open_ops[thread][1] = model.step(state, open_ops[thread][0])
        else:
            answer = open_ops.pop(thread)[1]
            if draw(st.integers(0, 9)) == 0:
                answer = ("ok", draw(st.sampled_from([None, 0, 1, 2, True])))
            events.append(Event.ret(thread, calls[thread], Response(*answer)))
            calls[thread] += 1
    if not open_ops:
        thread = draw(st.integers(0, threads - 1))
        events.append(Event.call(thread, calls[thread], draw(st.sampled_from(alphabet))))
    return History(events, n_threads=threads, stuck=True)


def assert_same_verdict(history, model):
    online = monitor_history(history, model)
    reference = monitor_history(history, model, engine="wgl")
    assert online.ok == reference.ok, history
    if model.partitionable:
        # Cells are judged one by one, so the first unjustified
        # operation can be another one (see test_a_cell_that_needs_a_
        # pending_operation_fails_on_its_own).
        return online
    failed = online.failed_pending
    assert (failed and failed.key) == (
        reference.failed_pending and reference.failed_pending.key
    ), history
    if wgl_check(history, model).ok:
        # The step itself: the first unjustified pending operation.
        stuck = check_stuck_history_model(history, model).failed
        assert (failed and failed.key) == (stuck and stuck.key), history
    return online


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(BLOCKING)), data=st.data())
def test_end_of_history_step_equals_the_stuck_search(name, data):
    model, alphabet = BLOCKING[name]
    history = simulate(data.draw, model, alphabet)
    assert 1 <= len(history.pending_operations) <= 3
    assert_same_verdict(history, model)


def test_a_compact_bucket_is_expanded():
    # Enqueue(1) and Enqueue(2) overlap and return with nothing else
    # open: the bucket folds into one Block state standing for both
    # orders.  Put(3) blocks on either order, each two values long; the
    # Block state itself is one element long.
    model, _alphabet = BLOCKING["blocking-queue"]
    burst = [
        Event.call(0, 0, inv("Enqueue", 1)),
        Event.call(1, 0, inv("Enqueue", 2)),
        Event.ret(0, 0, Response("ok", None)),
        Event.ret(1, 0, Response("ok", None)),
    ]
    checker = IncrementalChecker(model)
    for event in burst:
        if event.is_call:
            checker.on_call(event.thread, event.op_index, event.invocation)
        else:
            checker.on_return(event.thread, event.op_index, event.response)
    assert checker.live_configs == 2 and len(checker._configs[frozenset()]) == 1
    put = Event.call(1, 1, inv("Put", 3))
    full = History([*burst, put], n_threads=2, stuck=True)
    assert assert_same_verdict(full, model).ok
    # After a dequeue one value is left, and Put(3) has no reason to block.
    dequeued = [
        Event.call(0, 1, inv("TryDequeue")), Event.ret(0, 1, Response("ok", 2)),
    ]
    spare = History([*burst, *dequeued, put], n_threads=2, stuck=True)
    assert not assert_same_verdict(spare, model).ok


def test_a_cell_that_needs_a_pending_operation_fails_on_its_own():
    # Take(b) may block: box b is empty.  But Take(a) returned 1, which
    # only the pending Put(a, 1) explains, so H[Take(b)] — which drops
    # it — has no linearization either.  The reference names Take(b);
    # the stream judges cell b first, justifies Take(b) there, and
    # fails on Put(a, 1), whose own cell cannot leave it out.
    model = MailboxModel()
    events = [
        Event.call(0, 0, inv("Take", "b")),
        Event.call(1, 0, inv("Put", "a", 1)),
        Event.call(2, 0, inv("Take", "a")),
        Event.ret(2, 0, Response("ok", 1)),
    ]
    history = History(events, n_threads=3, stuck=True)
    stream = replay(history, model)
    assert stream.partition and stream.counters.cells == 2
    online = assert_same_verdict(history, model)
    assert not online.ok
    assert online.failed_pending.invocation == inv("Put", "a", 1)
    assert check_stuck_history_model(history, model).failed.invocation == inv(
        "Take", "b"
    )
    assert "no linearization of the completed operations" in (
        online.counterexample.describe()
    )
    # With Put(a, 1) returned, Take(b) is justified in the whole history.
    done = History(
        [*events[1:2], Event.ret(1, 0, Response("ok", None)), *events[2:],
         events[0]],
        n_threads=3,
        stuck=True,
    )
    assert assert_same_verdict(done, model).ok


#: The bug suite's blocking root causes, with the model each is checked
#: against: A (ManualResetEvent) and C (CountdownEvent) are the paper's
#: stuck-history bugs.
BUG_SUITE = [
    ("ManualResetEvent", "A", "manual-reset-event"),
    ("CountdownEvent", "C", "countdown-event"),
]


@pytest.mark.parametrize("version", ["pre", "beta"])
@pytest.mark.parametrize("cls,tag,model_name", BUG_SUITE)
def test_every_explored_stuck_history_agrees(cls, tag, model_name, version):
    entry = get_class(cls)
    test = next(c.witness_test for c in entry.causes if c.tag == tag)
    model = BLOCKING[model_name][0]
    subject = SystemUnderTest(entry.factory(version), f"{cls}({version})")
    with TestHarness(subject) as harness:
        histories = [
            history
            for history, _outcome in harness.explore_concurrent(
                test, DFSStrategy(preemption_bound=2)
            )
        ]
    verdicts = [
        assert_same_verdict(history, model).ok
        for history in histories
        if history.stuck
    ]
    # The bug leaves an operation blocked where the model lets it
    # complete; the fixed version never does (nor, here, blocks at all).
    assert all(verdicts) == (version == "beta")
