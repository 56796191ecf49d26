"""The bucketed online closure against the flat-set one it replaced.

``tests/stream/reference.py`` holds the pre-PR-19 ``IncrementalChecker``.
Both checkers compute the same closure — the configurations reachable by
linearizing still-open operations before the returning one — so after
**every event** of every generated stream they must agree on everything
observable: the return value, every counter and high-water mark, the
live configuration set itself, the failure record, and the return at
which a ``max_configurations`` cap trips.  Only the *members* of
``OnlineCounterexample.candidates`` (a sample of at most eight, in
visiting order) may differ; their number may not.

The second column is the offline search: linearizability is
prefix-closed, so an online PASS is pinned by ``wgl_check`` accepting
the whole stream, and an online FAIL at event *i* by ``wgl_check``
rejecting ``events[:i + 1]`` while accepting ``events[:i]``.  Operations
still open at the cut are pending operations of an open history — the
same may-or-may-not-have-happened semantics on both sides.

:func:`generate_stream` is the stream corpus: a simulated atomic object
driven by 2–5 logical threads, so a stream is linearizable unless a
response is corrupted on its way out.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import os
import random

import pytest

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.monitor import get_model, model_names
from repro.monitor.incremental import IncrementalChecker
from repro.monitor.trace import load_trace
from repro.monitor.wgl import MonitorLimitError, wgl_check

from .reference import ReferenceChecker

#: model → the invocations a thread may issue (small value ranges, so
#: that operations collide and responses are ambiguous).
ALPHABETS = {
    "register": [("write", 3), ("read", None)],
    "counter": [("inc", None), ("dec", None), ("get", None), ("set_value", 3)],
    "queue": [
        ("Enqueue", 4), ("Enqueue", 4), ("TryDequeue", None),
        ("TryDequeue", None), ("TryPeek", None), ("Count", None),
    ],
    "stack": [
        ("Push", 4), ("Push", 4), ("TryPop", None), ("TryPop", None),
        ("TryPeek", None), ("Clear", None),
    ],
    "set": [("Insert", 3), ("Remove", 3), ("Contains", 3), ("Size", None)],
    "dict": [
        ("TryAdd", 3), ("TryRemove", 3), ("TryGetValue", 3),
        ("GetItem", 3), ("ContainsKey", 3), ("Count", None),
    ],
}

STREAM_EVENTS = 36
P_NEVER_APPLIED = 0.04  #: a called operation goes indeterminate, no effect
P_RESPONSE_LOST = 0.04  #: an applied operation goes indeterminate


def generate_stream(seed, model_name: str, threads: int, corrupt: float):
    """One stream of ``(kind, thread, op_index, payload)`` tuples.

    Each thread cycles call → take effect atomically on one shared model
    state → return the response computed there; a random thread moves at
    each step, so operations overlap in the stream while their effects
    are totally ordered.  ``dec`` at zero blocks (the thread waits and
    may stay open for good); an indeterminate marker retires its thread,
    as the live recorder does; a *corrupt* share of the returns carries
    a response the object never gave.
    """
    assert sorted(ALPHABETS) == list(model_names())
    rng = random.Random(f"{model_name}:{threads}:{corrupt}:{seed}")
    model = get_model(model_name)
    state = model.initial_state()
    op_index = [0] * threads
    invocation: list = [None] * threads  #: the open call, if any
    response: list = [None] * threads  #: set once the call took effect
    alive = list(range(threads))
    seen_values: list = [None, "Fail", 0, 1, True, False]
    events = []
    stalled = 0
    while len(events) < STREAM_EVENTS and alive and stalled < 4 * threads:
        thread = rng.choice(alive)
        stalled += 1
        if invocation[thread] is None:
            method, arg_range = rng.choice(ALPHABETS[model_name])
            args = () if arg_range is None else (rng.randrange(arg_range),)
            invocation[thread] = Invocation(method, args)
            events.append(("call", thread, op_index[thread], invocation[thread]))
        elif response[thread] is None:
            if rng.random() < P_NEVER_APPLIED:
                events.append(("indeterminate", thread, op_index[thread], None))
                alive.remove(thread)
            else:
                new_state, computed = model.apply(state, invocation[thread])
                if computed is None:
                    continue  # blocked: this thread made no move
                state, response[thread] = new_state, computed
                seen_values.append(computed.value)
        elif rng.random() < P_RESPONSE_LOST:
            events.append(("indeterminate", thread, op_index[thread], None))
            alive.remove(thread)
        else:
            observed = response[thread]
            if rng.random() < corrupt:
                observed = Response.of(rng.choice(seen_values))
            events.append(("return", thread, op_index[thread], observed))
            invocation[thread] = response[thread] = None
            op_index[thread] += 1
        stalled = 0
    return events


def feed(checker, event):
    """Apply one stream tuple; the return value or 'cap' when it trips."""
    kind, thread, op_index, payload = event
    if kind == "call":
        return checker.on_call(thread, op_index, payload)
    if kind == "indeterminate":
        return checker.on_indeterminate(thread, op_index)
    try:
        return checker.on_return(thread, op_index, payload)
    except MonitorLimitError:
        return "cap"


def bucketed_live_set(checker: IncrementalChecker):
    # Buckets key their maps by (key, (kind, value)) already.
    flat = [
        (state, frozenset((key, *answer) for key, answer in linmap))
        for linmap, states in checker._configs.items()
        for state in states
    ]
    assert all(checker._configs.values()), "an empty bucket was kept"
    assert len(flat) == len(set(flat)) == checker.live_configs
    return set(flat)


def flat_live_set(checker: ReferenceChecker):
    return {
        (state, frozenset((key, r.kind, r.value) for key, r in linmap))
        for state, linmap in checker._configs
    }


def failure_record(checker):
    failed = checker.failed
    if failed is None:
        return None
    return (
        dataclasses.replace(failed, candidates=()),
        len(failed.candidates),
        failed.describe().splitlines()[0],
    )


#: What both checkers must agree on after every event.
OBSERVABLES = [
    ("configurations", lambda c: c.configurations),
    ("retired", lambda c: c.retired),
    ("events_ingested", lambda c: c.events_ingested),
    ("frontier_size", lambda c: c.frontier_size),
    ("live_configs", lambda c: c.live_configs),
    ("max_live_configs", lambda c: c.max_live_configs),
    ("max_frontier", lambda c: c.max_frontier),
    ("max_retirement_lag", lambda c: c.max_retirement_lag),
    ("ok", lambda c: c.ok),
    ("result", lambda c: dataclasses.replace(c.result(), counterexample=None)),
    ("failure", failure_record),
]


def run_both(events, model, cap):
    """Feed both checkers event by event; the index where the stream
    stopped (FAIL, cap, or its end) and how it stopped there."""
    new = IncrementalChecker(model, max_configurations=cap)
    old = ReferenceChecker(model, max_configurations=cap)
    for index, event in enumerate(events):
        got, want = feed(new, event), feed(old, event)
        assert got == want, (index, event)
        for name, read in OBSERVABLES:
            assert read(new) == read(old), (name, index, event)
        if got == "cap":
            return index, "cap"
        assert bucketed_live_set(new) == flat_live_set(old), (index, event)
        if got is False:
            return index, "fail"
    return len(events), "pass"


def as_history(events, threads: int) -> History:
    """The stream prefix as an open history (markers are not events)."""
    return History(
        [
            Event.call(t, i, payload) if kind == "call" else Event.ret(t, i, payload)
            for kind, t, i, payload in events
            if kind != "indeterminate"
        ],
        n_threads=threads,
    )


CAPS = (None, 5, 40, 400)
CORRUPTION = (0.0, 0.03, 0.10)
SEEDS = range(5)


@pytest.mark.parametrize("model_name", sorted(ALPHABETS))
@pytest.mark.parametrize("threads", [2, 3, 4, 5])
def test_bucketed_closure_matches_reference(model_name, threads):
    model = get_model(model_name)
    outcomes = set()
    for corrupt in CORRUPTION:
        for seed in SEEDS:
            events = generate_stream(seed, model_name, threads, corrupt)
            for cap in CAPS:
                stop, how = run_both(events, model, cap)
                outcomes.add(how)
                if cap is not None:
                    continue
                # The offline column (see the module docstring).
                if how == "fail":
                    assert not wgl_check(as_history(events[: stop + 1], threads), model).ok
                    assert wgl_check(as_history(events[:stop], threads), model).ok
                else:
                    assert wgl_check(as_history(events, threads), model).ok
    assert "pass" in outcomes


def test_corpus_reaches_every_outcome():
    """The generator is worth its name: FAILs, cap trips, blocked and
    indeterminate operations all occur in the corpus the oracle runs."""
    outcomes = set()
    kinds = set()
    blocked = False
    for model_name in ALPHABETS:
        model = get_model(model_name)
        for threads in (2, 5):
            for seed in SEEDS:
                events = generate_stream(seed, model_name, threads, 0.10)
                kinds.update(kind for kind, *_ in events)
                # Cut short with no thread retired: every thread waits in
                # a blocked ``dec``.
                blocked = blocked or (
                    len(events) < STREAM_EVENTS
                    and all(kind != "indeterminate" for kind, *_ in events)
                )
                for cap in (None, 5):
                    outcomes.add(run_both(events, model, cap)[1])
    assert outcomes == {"pass", "fail", "cap"}
    assert kinds == {"call", "return", "indeterminate"}
    assert blocked


# -- equal open invocations: the merged grouping pass and its fallback ---------

#: model → (an operation that completes first, one that stays open to the
#: end and what it returns there, the invocation four threads hold open
#: at once, what they may return).
EQUAL_SHAPES = {
    "queue": (("Enqueue", 1), ("Enqueue", 2), None, ("TryDequeue",), (1, 2, "Fail")),
    "stack": (("Push", 1), ("Push", 2), None, ("TryPop",), (1, 2, "Fail")),
    "set": (("Remove", 1), ("Remove", 1), True, ("Insert", 1), (True, False)),
    "counter": (("inc",), ("inc",), None, ("get",), (0, 1, 2)),
    "dict": (("TryAdd", 1), ("TryRemove", 1), 1, ("TryAdd", 1), (True, False)),
    "register": (("write", 1), ("write", 2), None, ("read",), (1, 2, 3)),
}


def equal_invocation_streams(model_name):
    """Streams with four equal invocations open at once, one of them
    indeterminate, for every assignment of the listed responses to the
    three that return (most are not linearizable).

    Thread 0 completes one operation and keeps a second open throughout;
    threads 1–4 then call the same invocation, thread 4 never returns.
    Each return's closure linearizes the others first in some buckets, so
    the next return finds itself committed in some buckets, free next to
    an equal operation in others, and — where every other equal
    operation is already linearized — alone in the rest.
    """
    first, held, held_value, equal, values = EQUAL_SHAPES[model_name]
    first, held, equal = (
        Invocation(method, tuple(args)) for method, *args in (first, held, equal)
    )
    model = get_model(model_name)
    head = [
        ("call", 0, 0, first),
        ("return", 0, 0, model.apply(model.initial_state(), first)[1]),
        ("call", 0, 1, held),
        *[("call", thread, 0, equal) for thread in (1, 2, 3, 4)],
    ]
    for marker_at in (0, 2):
        for observed in itertools.product(values, repeat=3):
            returns = [
                ("return", thread, 0, Response.of(value))
                for thread, value in zip((1, 2, 3), observed)
            ]
            returns.insert(marker_at, ("indeterminate", 4, 0, None))
            yield head + returns + [("return", 0, 1, Response.of(held_value))]


def bucket_kinds(checker: IncrementalChecker, event):
    """How the buckets held before *event* (a return) stand to it."""
    _kind, thread, op_index, _payload = event
    key = (thread, op_index)
    mine = checker._open[key].invocation
    equal = [k for k, op in checker._open.items() if k != key and op.invocation == mine]
    kinds = set()
    for linmap in checker._configs:
        linearized = dict(linmap)
        if key in linearized:
            kinds.add("committed")
        elif any(k not in linearized for k in equal):
            kinds.add("merged")
        elif equal:
            kinds.add("alone")
    return kinds


@pytest.mark.parametrize("model_name", sorted(EQUAL_SHAPES))
def test_equal_open_invocations_match_reference(model_name):
    model = get_model(model_name)
    outcomes = set()
    kinds = set()
    for events in equal_invocation_streams(model_name):
        probe = IncrementalChecker(model)
        for event in events:
            if event[0] == "return":
                kinds |= bucket_kinds(probe, event)
            if feed(probe, event) is False:
                break
        for cap in CAPS:
            stop, how = run_both(events, model, cap)
            outcomes.add(how)
            if cap is None:
                # The offline column, on every prefix.
                for cut in range(len(events) + 1):
                    online_ok = how == "pass" or cut <= stop
                    assert wgl_check(as_history(events[:cut], 5), model).ok == online_ok
    assert outcomes == {"pass", "fail", "cap"}
    assert kinds == {"committed", "merged", "alone"}


# -- the perfbench window trace: the counts the claimed gain is tied to -------


def _window_events(tmp_path, ops: int):
    script = os.path.join(
        os.path.dirname(__file__), "..", "..", "perfbench", "gen_traces.py"
    )
    if not os.path.exists(script):
        pytest.skip("perfbench/gen_traces.py not in this checkout")
    spec = importlib.util.spec_from_file_location("gen_traces", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = str(tmp_path / f"window-{ops}.jsonl")
    module.generate(path, "window", ops, 1)
    return load_trace(path).histories[0].events


@pytest.mark.parametrize(
    "ops, configurations", [(1000, 421_100), (3000, 1_263_300)]
)
def test_window_trace_counts_are_pinned(tmp_path, ops, configurations):
    checker = IncrementalChecker(get_model("queue"))
    for event in _window_events(tmp_path, ops):
        if event.is_call:
            checker.on_call(event.thread, event.op_index, event.invocation)
        else:
            assert checker.on_return(event.thread, event.op_index, event.response)
    assert checker.retired == ops
    assert checker.configurations == configurations
    assert checker.max_live_configs == 1152
    assert checker.max_frontier == 4
    assert checker.max_retirement_lag == 7
