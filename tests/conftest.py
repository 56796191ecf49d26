"""Shared fixtures and helpers for the Line-Up test suite."""

from __future__ import annotations

from typing import Any, Callable, Sequence

import pytest

from repro.core import (
    FiniteTest,
    Invocation,
    Response,
    SystemUnderTest,
    TestHarness,
)
from repro.runtime import Runtime, Scheduler


@pytest.fixture(scope="session")
def scheduler() -> Scheduler:
    """One pooled scheduler for the whole test session."""
    sched = Scheduler()
    yield sched
    sched.shutdown()


@pytest.fixture()
def runtime(scheduler: Scheduler) -> Runtime:
    return Runtime(scheduler)


@pytest.fixture()
def single_threaded(scheduler: Scheduler) -> None:
    """Leave the test process with one thread, as the CLI has.

    A ``WorkerPool`` forks its workers only from a single-threaded caller
    and spawns them otherwise, and the session scheduler keeps its pooled
    threads parked between tests: in a full run the isolation suites
    would quietly exercise ``spawn`` where on their own they exercise
    ``fork``.  So shut the scheduler down; it grows its threads again on
    next use.  Threads a watchdog test abandoned are not waited for: while
    one lives (a spinner lives for good) pools spawn, which is the guard
    working.  Whoever *needs* the fork checks ``threading.active_count()``.
    """
    scheduler.shutdown()


def run_sequential(
    scheduler: Scheduler,
    factory: Callable[[Runtime], Any],
    script: Sequence[Invocation],
) -> list[Response]:
    """Run *script* single-threaded against a fresh instance.

    The workhorse for testing the sequential semantics of the ported data
    structures: the invocations execute in order on one logical thread and
    the observed responses are returned.
    """
    test = FiniteTest.of([list(script)])
    with TestHarness(SystemUnderTest(factory, "seq"), scheduler=scheduler) as harness:
        observations, _stats = harness.run_serial(test, max_executions=1)
        histories = observations.full or observations.stuck
        assert histories, "sequential run produced no history"
        return [step.response for step in histories[0].steps]


def inv(method: str, *args: Any) -> Invocation:
    return Invocation(method, args)


def ok(value: Any = None) -> Response:
    return Response.of(value)


def raised(name: str) -> Response:
    return Response("raised", name)
