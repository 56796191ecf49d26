"""Online vs offline: the streaming checker agrees with the WGL reference.

The incremental engine retires linearized prefixes as it goes, so its
configuration sets are *not* the batch search's — agreement is a real
theorem, not a tautology.  The suite replays every explored concurrent
history of ``ConcurrentQueue`` and ``ConcurrentDictionary`` (≥ 200 across
the parametrizations) event-by-event through the stream engine, as
``check --backend monitor`` does (:func:`~repro.monitor.dispatch.replay`:
per key for the dictionary, a stuck history followed by the
end-of-history step), and compares the
verdict with ``monitor_history(..., engine="wgl")``; every online FAIL
must also carry a counterexample.
"""

from __future__ import annotations

import pytest

from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.monitor import get_model, monitor_history
from repro.monitor.dispatch import replay
from repro.runtime import DFSStrategy
from repro.structures.registry import get_class

from tests.monitor.test_cross_validation import SUBJECTS, random_tests


def explored_histories(scheduler, model_name, version, test):
    cls, _alphabet = SUBJECTS[model_name]
    entry = get_class(cls)
    subject = SystemUnderTest(entry.factory(version), f"{cls}({version})")
    with TestHarness(subject, scheduler=scheduler) as harness:
        return [
            history
            for history, _outcome in harness.explore_concurrent(
                test, DFSStrategy(preemption_bound=2), max_executions=150
            )
        ]


@pytest.mark.parametrize("model_name", ["queue", "dict"])
@pytest.mark.parametrize("version", ["beta", "pre"])
def test_online_matches_offline_verdicts(scheduler, model_name, version):
    model = get_model(model_name)
    checked = 0
    disagreements = []
    seed = sum(map(ord, model_name + version))  # stable across processes
    for test in random_tests(model_name, seed=seed, count=3):
        for history in explored_histories(
            scheduler, model_name, version, test
        ):
            offline_ok = monitor_history(history, model, engine="wgl").ok
            stream = replay(history, model)
            online_ok = stream.failed is None
            if online_ok != offline_ok:
                disagreements.append((history, offline_ok, online_ok))
            if not online_ok:
                # Every online FAIL names the operation that broke it.
                assert stream.failed.describe()
            checked += 1
    assert not disagreements, disagreements[0]
    assert checked >= 50  # × 4 parametrizations ⇒ ≥ 200 histories overall


@pytest.mark.parametrize("model_name", ["queue", "dict"])
def test_online_retires_while_agreeing(scheduler, model_name):
    """On passing histories the online engine actually retires prefixes —
    agreement is not achieved by keeping everything live forever."""
    model = get_model(model_name)
    retired_any = False
    for test in random_tests(model_name, seed=7, count=2):
        for history in explored_histories(scheduler, model_name, "beta", test):
            if history.stuck:
                continue
            stream = replay(history, model)
            if stream.failed is None and stream.retired():
                retired_any = True
                assert stream.frontier_size() == 0
    assert retired_any


def test_online_fails_figure1_history(scheduler):
    """The paper's Figure 1 violation is caught online, mid-stream."""
    model = get_model("queue")
    test = FiniteTest.of(
        [
            [Invocation("Enqueue", (200,)), Invocation("TryDequeue")],
            [Invocation("Enqueue", (400,)), Invocation("TryDequeue")],
        ]
    )
    histories = explored_histories(scheduler, "queue", "pre", test)
    online_fails = [
        h
        for h in histories
        if not h.stuck and replay(h, model).failed is not None
    ]
    offline_fails = [
        h
        for h in histories
        if not h.stuck and not monitor_history(h, model, engine="wgl").ok
    ]
    assert offline_fails and online_fails == offline_fails
