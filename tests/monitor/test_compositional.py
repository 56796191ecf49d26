"""P-compositionality, applied online: one checker per key.

A per-key model's history is linearizable iff each key's projection is,
so ``lineup watch`` and ``lineup monitor`` check each key in a cell of
its own (:class:`~repro.stream.StreamChecker`) — what the deleted offline
partitioner did once per finished history.  These are its cases against
the online cells: how a history splits, when it may not, that a failure
stays in its cell, that cells beat one whole-history search, and that
the cells' verdict equals the WGL reference's.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.monitor import DumpTraceWriter, get_model, monitor_history
from repro.stream import StreamChecker, WatchConfig, watch_trace

from .conftest import call, hist, ret

DICT = get_model("dict")
QUEUE = get_model("queue")
SET = get_model("set")


def per_key_history(n_keys: int = 3) -> History:
    """One add/get pair per key, all overlapping across keys (a thread
    each: a trace has one open call per thread)."""
    events = []
    for i in range(n_keys):
        events.append(call(i, 0, "TryAdd", f"k{i}", i))
        events.append(call(n_keys + i, 0, "TryGetValue", f"k{i}"))
    for i in range(n_keys):
        events.append(ret(i, 0, True))
        events.append(ret(n_keys + i, 0, i))
    return hist(*events, n=2 * n_keys)


def watched(directory, history, model):
    """*history* dumped to a file and judged as ``lineup monitor`` does."""
    writer = DumpTraceWriter(
        str(directory), "subject", {}, history.n_threads, fresh=False
    )
    number = len(os.listdir(writer.directory)) + 1
    writer.write(number, history)
    path = os.path.join(writer.directory, f"{number}.trace.jsonl")
    return watch_trace(path, model, WatchConfig(max_configurations=None))


def projection(history, key):
    """The events of *history*'s operations on *key*, in order."""
    ops = history.operation_map
    return History(
        [e for e in history.events
         if ops[(e.thread, e.op_index)].invocation.args[0] == key],
        n_threads=history.n_threads,
    )


class TestPartition:
    def test_per_key_history_splits(self, tmp_path):
        result = watched(tmp_path, per_key_history(3), DICT)
        assert result.partitioned and result.restarts == 0
        assert result.stats["cells"] == 3 and result.stats["retired"] == 6

    def test_global_op_refuses_partition(self, tmp_path):
        history = hist(
            call(0, 0, "TryAdd", "k", 1), ret(0, 0, True),
            call(0, 1, "Count"), ret(0, 1, 1),
        )
        result = watched(tmp_path, history, DICT)
        assert not result.partitioned and result.restarts == 1
        assert result.stats["cells"] == 1

    def test_unpartitionable_model_refuses(self):
        with pytest.raises(ValueError, match="not partitionable"):
            StreamChecker(QUEUE, partition=True)

    def test_cell_preserves_relative_order(self, tmp_path):
        history = hist(
            call(0, 0, "Insert", 1), ret(0, 0, True),
            call(1, 0, "Insert", 9), ret(1, 0, True),
            call(0, 1, "Remove", 1), ret(0, 1, True),
        )
        assert watched(tmp_path, history, SET).verdict == "PASS"
        # Remove(1) completes before Insert(1) begins: no order of the
        # cell of 1 lets it find the element.
        swapped = hist(
            call(0, 0, "Remove", 1), ret(0, 0, True),
            call(1, 0, "Insert", 9), ret(1, 0, True),
            call(0, 1, "Insert", 1), ret(0, 1, True),
        )
        assert watched(tmp_path, swapped, SET).verdict == "FAIL"


class TestCompositionalCheck:
    def test_passes_and_sums_configurations(self, tmp_path):
        history = per_key_history(3)
        result = watched(tmp_path, history, DICT)
        assert result.verdict == "PASS"
        # Each cell does exactly the work of its key's projection alone.
        assert result.stats["configurations"] == sum(
            monitor_history(projection(history, f"k{i}"), DICT).configurations
            for i in range(3)
        ) > 0

    def test_failure_names_the_cell(self, tmp_path):
        history = hist(
            call(0, 0, "TryAdd", "a", 1), ret(0, 0, True),
            call(0, 1, "TryGetValue", "a"), ret(0, 1, 2),  # wrong value
            call(1, 0, "TryAdd", "b", 7), ret(1, 0, True),
        )
        result = watched(tmp_path, history, DICT)
        assert result.verdict == "FAIL"
        assert result.counterexample.invocation.args == ("a",)

    def test_global_op_falls_back_to_wgl(self, tmp_path):
        history = hist(
            call(0, 0, "TryAdd", "k", 1), ret(0, 0, True),
            call(0, 1, "Count"), ret(0, 1, 1),
        )
        result = watched(tmp_path, history, DICT)
        assert result.verdict == "PASS" and not result.partitioned
        assert monitor_history(history, DICT, engine="wgl").ok

    def test_beats_whole_history_search_on_disjoint_keys(self, tmp_path):
        # One thread per key, all operations mutually overlapping, and a
        # violation in one cell.  Proving the FAIL forces WGL to exhaust
        # a configuration space that multiplies across keys; the cells
        # check one small key at a time.
        n_keys = 4
        events = []
        for i in range(n_keys):
            events.append(call(i, 0, "TryAdd", f"k{i}", i))
        for i in range(n_keys):
            events.append(ret(i, 0, True))
        for i in range(n_keys):
            events.append(call(i, 1, "TryGetValue", f"k{i}"))
        for i in range(n_keys):
            # Key k0's read observes a value that was never stored.
            events.append(ret(i, 1, 99 if i == 0 else i))
        history = hist(*events, n=n_keys)
        cells = watched(tmp_path, history, DICT)
        whole = monitor_history(history, DICT, engine="wgl")
        assert cells.verdict == "FAIL" and not whole.ok
        assert cells.stats["configurations"] < whole.configurations


def random_dict_history(rng: random.Random, n_ops: int = 8) -> History:
    """A random (possibly non-linearizable) 2-thread per-key history, in
    which a thread calls only once its previous operation returned."""
    keys = ["a", "b"]
    pending: list[tuple[int, int, str]] = []
    events: list[Event] = []
    counters = [0, 0]
    for _ in range(n_ops * 2):
        thread = rng.randrange(2)
        busy = any(t == thread for t, _i, _method in pending)
        if pending and (
            busy or rng.random() < 0.5 or counters[thread] >= n_ops
        ):
            index = rng.randrange(len(pending))
            t, i, method = pending.pop(index)
            value = rng.choice([True, False, "Fail", 1, 2])
            events.append(Event.ret(t, i, Response.of(value)))
        elif counters[thread] < n_ops:
            method = rng.choice(["TryAdd", "TryRemove", "TryGetValue", "ContainsKey"])
            key = rng.choice(keys)
            args = (key, rng.randrange(3)) if method == "TryAdd" else (key,)
            events.append(
                Event.call(thread, counters[thread], Invocation(method, args))
            )
            pending.append((thread, counters[thread], method))
            counters[thread] += 1
    while pending:
        t, i, _method = pending.pop()
        events.append(Event.ret(t, i, Response.of(rng.choice([True, False, "Fail"]))))
    return History(events, n_threads=2)


class TestAgreementWithWgl:
    def test_compositional_equals_wgl_on_random_histories(self, tmp_path):
        rng = random.Random(7)
        for _ in range(150):
            history = random_dict_history(rng)
            cells = watched(tmp_path, history, DICT)
            whole = monitor_history(history, DICT, engine="wgl")
            assert (cells.verdict == "PASS") == whole.ok, str(history)


@pytest.mark.parametrize("engine", ["online", "wgl"])
def test_a_thread_with_two_open_calls_is_refused(engine):
    # The shape the offline partitioner's generator once built: thread 0
    # calls TryAdd for every key before any of them returns.  No trace
    # file can hold it, so ``monitor_history`` names the thread instead
    # of judging it.
    events = []
    for i in range(3):
        events.append(call(0, i, "TryAdd", f"k{i}", i))
        events.append(call(1, i, "TryGetValue", f"k{i}"))
    for i in range(3):
        events.append(ret(0, i, True))
        events.append(ret(1, i, i))
    with pytest.raises(ValueError, match="thread 0 does not alternate"):
        monitor_history(hist(*events, n=2), DICT, engine=engine)
