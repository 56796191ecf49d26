"""pytest-friendly assertion helpers for checking your own structures.

The thinnest possible on-ramp: wrap your factory and alphabet in one
assertion inside an ordinary test.

    from repro.testing import assert_linearizable
    from repro import Invocation

    def test_my_set_is_linearizable():
        assert_linearizable(
            MySet,
            [Invocation("AddIfAbsent", (1,)), Invocation("Remove", (1,)),
             Invocation("Size")],
            rows=2, cols=2, samples=20,
        )

On failure the assertion message carries the full Line-Up report — the
test matrix, the violating interleaving (with timeline), the matching
serial histories and the diagnosis — so CI logs are self-contained.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core import (
    CheckConfig,
    CheckResult,
    FiniteTest,
    Invocation,
    SystemUnderTest,
    check,
    random_check,
    render_check_result,
)
from repro.runtime import Runtime, Scheduler

__all__ = [
    "assert_linearizable",
    "assert_not_linearizable",
    "assert_test_passes",
    "assert_test_fails",
]


def _subject(factory: Callable[[Runtime], Any], name: str | None) -> SystemUnderTest:
    return SystemUnderTest(factory, name or getattr(factory, "__name__", "subject"))


def assert_linearizable(
    factory: Callable[[Runtime], Any],
    invocations: Sequence[Invocation],
    rows: int = 2,
    cols: int = 2,
    samples: int = 20,
    seed: int = 0,
    config: CheckConfig | None = None,
    name: str | None = None,
    scheduler: Scheduler | None = None,
) -> None:
    """Assert a RandomCheck campaign finds no violation.

    A passing assertion covers the sampled tests only (the paper's
    restricted soundness); a failing one is a *proof* of
    non-linearizability, included in the assertion message.
    """
    campaign = random_check(
        _subject(factory, name),
        list(invocations),
        rows=rows,
        cols=cols,
        samples=samples,
        seed=seed,
        config=config,
        stop_at_first_failure=True,
        scheduler=scheduler,
    )
    if campaign.first_failure is not None:
        raise AssertionError(
            "not deterministically linearizable:\n"
            + render_check_result(campaign.first_failure)
        )
    if campaign.crashes:
        test, message = campaign.crashes[0]
        raise AssertionError(f"the subject crashed on {test}: {message}")


def assert_not_linearizable(
    factory: Callable[[Runtime], Any],
    invocations: Sequence[Invocation],
    rows: int = 2,
    cols: int = 2,
    samples: int = 20,
    seed: int = 0,
    config: CheckConfig | None = None,
    name: str | None = None,
    scheduler: Scheduler | None = None,
) -> CheckResult:
    """Assert the campaign *does* find a violation; returns its result.

    Useful for pinning known bugs (regression tests for your bug fixes
    work the other way around: `assert_linearizable` after the fix).
    """
    campaign = random_check(
        _subject(factory, name),
        list(invocations),
        rows=rows,
        cols=cols,
        samples=samples,
        seed=seed,
        config=config,
        stop_at_first_failure=True,
        scheduler=scheduler,
    )
    if campaign.first_failure is None:
        raise AssertionError(
            f"expected a linearizability violation, but {campaign.tests_run} "
            f"random {rows}x{cols} tests passed"
        )
    return campaign.first_failure


def assert_test_passes(
    factory: Callable[[Runtime], Any],
    test: FiniteTest,
    config: CheckConfig | None = None,
    name: str | None = None,
    scheduler: Scheduler | None = None,
) -> None:
    """Assert one specific finite test passes the two-phase check."""
    result = check(_subject(factory, name), test, config, scheduler=scheduler)
    if result.failed:
        raise AssertionError(
            "test failed the linearizability check:\n"
            + render_check_result(result)
        )


def assert_test_fails(
    factory: Callable[[Runtime], Any],
    test: FiniteTest,
    config: CheckConfig | None = None,
    name: str | None = None,
    scheduler: Scheduler | None = None,
) -> CheckResult:
    """Assert one specific finite test fails; returns the result."""
    result = check(_subject(factory, name), test, config, scheduler=scheduler)
    if result.passed:
        raise AssertionError(f"expected {test} to fail, but it passed")
    return result
