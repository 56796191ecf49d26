"""Property-based cross-validation of the witness search.

The grouped, profile-indexed witness search must agree with the O(n!)
brute-force reference on randomly generated histories and observation
sets built from a random "register" object semantics, and
``is_witness_for`` (which reads ``History.precedence``) must answer as
the pair-by-pair loop of ``tests/core/witness_reference.py`` does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Invocation, Response
from repro.core.history import History, SerialHistory, SerialStep
from repro.core.spec import ObservationSet
from repro.cli import parse_test
from repro.core.harness import SystemUnderTest, TestHarness
from repro.core.witness import (
    brute_force_full_witness,
    check_full_history,
    is_witness_for,
)
from repro.runtime import DFSStrategy
from repro.structures.registry import get_class
from tests.core import witness_reference as reference


@st.composite
def register_scenarios(draw):
    """A random test over a register {write(v), read} and one concurrent
    history of it, plus the full serial observation set."""
    n_threads = draw(st.integers(2, 3))
    columns = []
    for _t in range(n_threads):
        ops = draw(
            st.lists(
                st.sampled_from([("write", 1), ("write", 2), ("read", None)]),
                min_size=1,
                max_size=2,
            )
        )
        columns.append(ops)

    # Enumerate all serial interleavings and record register semantics.
    import itertools

    def all_interleavings(cols):
        indices = [0] * len(cols)
        total = sum(len(c) for c in cols)

        def rec(current, indices):
            if len(current) == total:
                yield tuple(current)
                return
            for t in range(len(cols)):
                if indices[t] < len(cols[t]):
                    indices[t] += 1
                    current.append((t, indices[t] - 1))
                    yield from rec(current, indices)
                    current.pop()
                    indices[t] -= 1

        yield from rec([], indices)

    observations = ObservationSet(n_threads)
    serial_runs = []
    for order in all_interleavings(columns):
        value = 0
        steps = []
        for thread, idx in order:
            op, arg = columns[thread][idx]
            if op == "write":
                value = arg
                steps.append(
                    SerialStep(thread, Invocation("write", (arg,)), Response.of(None))
                )
            else:
                steps.append(SerialStep(thread, Invocation("read"), Response.of(value)))
        serial = SerialHistory(tuple(steps))
        observations.add(serial)
        serial_runs.append(serial)

    # Build one concurrent history: pick a serial run and randomly stretch
    # operation intervals (moving calls earlier), preserving per-thread
    # order — results stay those of the serial run, overlap increases.
    chosen = serial_runs[draw(st.integers(0, len(serial_runs) - 1))]
    events = []
    for step_idx, step in enumerate(chosen.steps):
        events.append(("call", step_idx, step))
        events.append(("ret", step_idx, step))
    # Randomly swap adjacent (ret_i, call_j) pairs to create overlap.
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(events) - 2))
        first, second = events[pos], events[pos + 1]
        if first[0] == "ret" and second[0] == "call" and first[1] != second[1]:
            events[pos], events[pos + 1] = second, first

    counters: dict[int, int] = {}
    concrete = []
    op_index: dict[int, int] = {}
    for kind, step_idx, step in events:
        if kind == "call":
            idx = counters.get(step.thread, 0)
            counters[step.thread] = idx + 1
            op_index[step_idx] = idx
            concrete.append(Event.call(step.thread, idx, step.invocation))
        else:
            concrete.append(Event.ret(step.thread, op_index[step_idx], step.response))
    history = History(concrete, n_threads)
    return history, observations, chosen


@given(register_scenarios())
@settings(max_examples=60, deadline=None)
def test_fast_search_agrees_with_brute_force(scenario):
    history, observations, _chosen = scenario
    fast = check_full_history(history, observations)
    slow = brute_force_full_witness(history, observations)
    assert (fast is None) == (slow is None)


@given(register_scenarios())
@settings(max_examples=60, deadline=None)
def test_found_witness_is_actually_a_witness(scenario):
    history, observations, _chosen = scenario
    witness = check_full_history(history, observations)
    if witness is not None:
        assert is_witness_for(witness, history)
        assert witness.profile_for(observations.n_threads) == history.profile


@given(register_scenarios())
@settings(max_examples=60, deadline=None)
def test_origin_serial_history_always_witnessed(scenario):
    """A history produced by stretching a serial run must keep that run
    as a witness (stretching only removes order constraints)."""
    history, observations, chosen = scenario
    assert is_witness_for(chosen, history)
    assert check_full_history(history, observations) is not None


# -- is_witness_for against the pair-by-pair reference ------------------------


def _candidates(serial_runs):
    """Every serial run, plus its prefixes: candidates missing some of the
    history's operations take the ``positions`` miss branch."""
    for serial in serial_runs:
        yield serial
        for cut in range(len(serial.steps)):
            yield SerialHistory(serial.steps[:cut])


def _assert_same_answers(history, candidates):
    for candidate in candidates:
        assert is_witness_for(candidate, history) == reference.is_witness_for(
            candidate, history
        ), (str(candidate), str(history))


def _stuck_variant(history, cut):
    """*history* with the returns of the last operations of the first
    *cut* threads dropped (those operations are left pending)."""
    last = {}
    for op in history.operations:
        last[op.thread] = op.key
    pending = {key for thread, key in last.items() if thread < cut}
    events = [
        e for e in history.events
        if not (e.is_return and (e.thread, e.op_index) in pending)
    ]
    return History(events, history.n_threads, stuck=True)


@given(register_scenarios(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_precedence_pairs_agree_with_the_reference(scenario, cut):
    history, observations, _chosen = scenario
    runs = list(observations.full)
    _assert_same_answers(history, _candidates(runs))
    stuck = _stuck_variant(history, cut)
    _assert_same_answers(stuck, _candidates(runs))
    for op in stuck.pending_operations:
        _assert_same_answers(stuck.project_pending(op), _candidates(runs))


@pytest.mark.parametrize(
    "name,version,text",
    [
        ("ConcurrentQueue", "beta", "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue"),
        ("ConcurrentQueue", "pre", "Enqueue(1); TryDequeue | TryDequeue"),
        ("SemaphoreSlim", "beta", "Wait | Wait; Release"),
        ("BlockingCollection", "pre", "Add(1); Take | Take | Take"),
    ],
)
def test_explored_histories_agree_with_the_reference(name, version, text):
    """Every phase-2 history of a test (and each stuck one's ``H[e]``)
    against every serial history phase 1 found, full and stuck."""
    entry = get_class(name)
    subject = SystemUnderTest(entry.factory(version), f"{name}({version})")
    test = parse_test(text)
    with TestHarness(subject) as harness:
        observations, _ = harness.run_serial(test)
        runs = [*observations.full, *observations.stuck]
        histories = 0
        for history, _outcome in harness.explore_concurrent(
            test, DFSStrategy(preemption_bound=2), max_executions=400
        ):
            histories += 1
            _assert_same_answers(history, runs)
            for op in history.pending_operations:
                _assert_same_answers(history.project_pending(op), runs)
    assert histories > 1
