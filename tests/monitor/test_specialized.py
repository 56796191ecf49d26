"""The closed-form checkers' histories, judged by the one engine.

The queue FIFO axioms, the register clusters and the per-element set and
dict histories were pinned on the decrease-and-conquer checkers that the
offline chain once tried first.  Those checkers are gone: every route to
a verdict runs the online engine.  The same targeted histories — one per
axiom, the shapes the checkers deferred on, and randomized ones — now pin
the online verdict, which must equal the WGL reference on each.
"""

from __future__ import annotations

import random

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.monitor import get_model, monitor_history

from .conftest import call, hist, ret

QUEUE = get_model("queue")
REGISTER = get_model("register")
SET = get_model("set")
DICT = get_model("dict")


def judge(history, model):
    """The online verdict, after checking it against the reference."""
    verdict = monitor_history(history, model)
    assert verdict.ok == monitor_history(history, model, engine="wgl").ok, (
        str(history)
    )
    return verdict


class TestQueueAxioms:
    def test_correct_concurrent_fifo_passes(self):
        history = hist(
            call(0, 0, "Enqueue", 1),
            call(1, 0, "Enqueue", 2),
            ret(0, 0), ret(1, 0),
            call(0, 1, "TryDequeue"),
            call(1, 1, "TryDequeue"),
            ret(0, 1, 2), ret(1, 1, 1),
        )
        result = judge(history, QUEUE)
        assert result.ok and result.engine == "incremental"

    def test_never_enqueued_value_fails(self):
        history = hist(
            call(0, 0, "Enqueue", 1), ret(0, 0),
            call(0, 1, "TryDequeue"), ret(0, 1, 9),
        )
        result = judge(history, QUEUE)
        assert not result.ok
        assert "returned ok(9)" in result.counterexample.describe()

    def test_double_dequeue_fails(self):
        history = hist(
            call(0, 0, "Enqueue", 1), ret(0, 0),
            call(0, 1, "TryDequeue"), ret(0, 1, 1),
            call(0, 2, "TryDequeue"), ret(0, 2, 1),
        )
        result = judge(history, QUEUE)
        assert not result.ok and result.counterexample.op_index == 2

    def test_dequeue_before_enqueue_fails(self):
        history = hist(
            call(0, 0, "TryDequeue"), ret(0, 0, 1),
            call(0, 1, "Enqueue", 1), ret(0, 1),
        )
        result = judge(history, QUEUE)
        assert not result.ok and result.counterexample.op_index == 0

    def test_fifo_order_violation_fails(self):
        # enq(1) <H enq(2), 2 dequeued but 1 never: FIFO broken.
        history = hist(
            call(0, 0, "Enqueue", 1), ret(0, 0),
            call(0, 1, "Enqueue", 2), ret(0, 1),
            call(1, 0, "TryDequeue"), ret(1, 0, 2),
        )
        result = judge(history, QUEUE)
        assert not result.ok and result.counterexample.thread == 1

    def test_fifo_dequeue_order_violation_fails(self):
        # Both dequeued, but deq(2) completed before deq(1) began although
        # enq(1) <H enq(2).
        history = hist(
            call(0, 0, "Enqueue", 1), ret(0, 0),
            call(0, 1, "Enqueue", 2), ret(0, 1),
            call(0, 2, "TryDequeue"), ret(0, 2, 2),
            call(0, 3, "TryDequeue"), ret(0, 3, 1),
        )
        assert not judge(history, QUEUE).ok

    def test_guards_defer_to_general_search(self):
        # The shapes outside the closed form are judged like the rest.
        empty_deq = hist(call(0, 0, "TryDequeue"), ret(0, 0, "Fail"))
        repeated = hist(
            call(0, 0, "Enqueue", 1), ret(0, 0),
            call(0, 1, "Enqueue", 1), ret(0, 1),
        )
        peek = hist(call(0, 0, "TryPeek"), ret(0, 0, "Fail"))
        pending = hist(call(0, 0, "Enqueue", 1), stuck=True)
        verdicts = [judge(h, QUEUE).ok for h in (empty_deq, repeated, peek, pending)]
        assert verdicts == [True, True, True, False]  # a queue never blocks

    def test_specialized_check_falls_back_to_wgl(self):
        history = hist(call(0, 0, "TryDequeue"), ret(0, 0, "Fail"))
        result = judge(history, QUEUE)
        assert result.ok and result.engine == "incremental"


class TestRegisterClusters:
    def test_correct_history_passes(self):
        history = hist(
            call(0, 0, "Write", 1),
            call(1, 0, "Read"),
            ret(0, 0), ret(1, 0, 1),
            call(0, 1, "Write", 2), ret(0, 1),
            call(1, 1, "Read"), ret(1, 1, 2),
        )
        assert judge(history, REGISTER).ok

    def test_unwritten_value_fails(self):
        history = hist(call(0, 0, "Read"), ret(0, 0, 42))
        result = judge(history, REGISTER)
        assert not result.ok
        assert "returned ok(42)" in result.counterexample.describe()

    def test_read_before_own_write_fails(self):
        history = hist(
            call(0, 0, "Read"), ret(0, 0, 1),
            call(0, 1, "Write", 1), ret(0, 1),
        )
        assert not judge(history, REGISTER).ok

    def test_stale_initial_read_fails(self):
        # A read observes the initial value (None) strictly after Write(1)
        # completed: the initial cluster can no longer come first.
        history = hist(
            call(0, 0, "Write", 1), ret(0, 0),
            call(1, 0, "Read"), ret(1, 0, None),
        )
        result = judge(history, REGISTER)
        assert not result.ok
        assert "returned ok" in result.counterexample.describe()

    def test_cluster_order_conflict_fails(self):
        # Reads pin Write(1)'s block after Write(2)'s, yet Write(1)
        # completed before Write(2) began — no linear order works.
        history = hist(
            call(0, 0, "Write", 1), ret(0, 0),
            call(0, 1, "Write", 2), ret(0, 1),
            call(0, 2, "Read"), ret(0, 2, 2),
            call(0, 3, "Read"), ret(0, 3, 1),
        )
        assert not judge(history, REGISTER).ok

    def test_guard_repeated_write_values(self):
        history = hist(
            call(0, 0, "Write", 1), ret(0, 0),
            call(0, 1, "Write", 1), ret(0, 1),
        )
        assert judge(history, REGISTER).ok


class TestSetDictDelegation:
    def test_per_element_set_history_is_specialized(self):
        history = hist(
            call(0, 0, "Insert", 1),
            call(1, 0, "Contains", 1),
            ret(0, 0, True), ret(1, 0, True),
        )
        result = judge(history, SET)
        assert result.ok and result.engine == "incremental"

    def test_global_op_refuses(self):
        history = hist(
            call(0, 0, "Insert", 1), ret(0, 0, True),
            call(0, 1, "Size"), ret(0, 1, 1),
        )
        assert judge(history, SET).ok

    def test_failing_cell_reported(self):
        history = hist(
            call(0, 0, "TryAdd", "k", 1), ret(0, 0, True),
            call(0, 1, "TryGetValue", "k"), ret(0, 1, 5),
        )
        result = judge(history, DICT)
        assert not result.ok
        assert result.counterexample.invocation.args[0] == "k"


def random_queue_history(rng: random.Random, n_values: int = 4) -> History:
    """Random full 2-thread queue history over distinct values."""
    scripts = [[], []]
    values = list(range(n_values))
    for v in values:
        scripts[rng.randrange(2)].append(("Enqueue", (v,), None))
    dequeued = rng.sample(values, k=rng.randrange(n_values + 1))
    for v in dequeued:
        # Sometimes return the right value, sometimes a perturbed one.
        observed = v if rng.random() < 0.7 else rng.choice(values)
        scripts[rng.randrange(2)].append(("TryDequeue", (), observed))
    for script in scripts:
        rng.shuffle(script)
    return interleave(rng, scripts)


def random_register_history(rng: random.Random, n_writes: int = 3) -> History:
    scripts = [[], []]
    for v in range(1, n_writes + 1):
        scripts[rng.randrange(2)].append(("Write", (v,), None))
    for _ in range(rng.randrange(4)):
        observed = rng.choice(range(0, n_writes + 1)) or None
        scripts[rng.randrange(2)].append(("Read", (), observed))
    for script in scripts:
        rng.shuffle(script)
    return interleave(rng, scripts)


def interleave(rng: random.Random, scripts) -> History:
    """Randomly interleave per-thread op scripts into a full history, in
    which a thread calls only once its previous operation returned."""
    events: list[Event] = []
    pending: list[tuple[int, int, object]] = []
    counters = [0 for _ in scripts]
    while any(counters[t] < len(scripts[t]) for t in range(len(scripts))) or pending:
        busy = {t for t, _i, _result in pending}
        candidates = [
            t for t in range(len(scripts))
            if counters[t] < len(scripts[t]) and t not in busy
        ]
        if pending and (rng.random() < 0.5 or not candidates):
            t, i, result = pending.pop(rng.randrange(len(pending)))
            events.append(Event.ret(t, i, Response.of(result)))
            continue
        t = rng.choice(candidates)
        method, args, result = scripts[t][counters[t]]
        events.append(Event.call(t, counters[t], Invocation(method, args)))
        pending.append((t, counters[t], result))
        counters[t] += 1
    return History(events, n_threads=len(scripts))


class TestRandomizedAgreementWithWgl:
    def test_queue_axioms_agree_with_search(self):
        rng = random.Random(11)
        for _ in range(300):
            judge(random_queue_history(rng), QUEUE)

    def test_register_clusters_agree_with_search(self):
        rng = random.Random(13)
        for _ in range(300):
            judge(random_register_history(rng), REGISTER)
