"""Automatic drivers: AutoCheck, RandomCheck and test minimization.

* :func:`auto_check` — the algorithm of Fig. 6: enumerate the tests of
  ``M^{I_n}_{n×n}`` for n = 1, 2, ... and Check each.  On a correct
  implementation this never terminates (consistent with undecidability),
  so callers bound it with ``max_n`` and/or ``max_tests``; Theorem 7 says
  an unbounded run FAILs on every implementation that is not
  deterministically linearizable.
* :func:`random_check` — the algorithm of Fig. 8 / Section 4.3: Check a
  uniform random sample of k tests from ``M^I_{i×j}``.  Complete (every
  FAIL is genuine) but no longer sound (bugs may be missed).  The paper's
  evaluation setting is ``i = j = 3, k = 100``.
* :func:`minimize_failing_test` — automates the paper's Section 5.1 step
  "manually remove operations from failing 3x3 test matrices to obtain a
  failing test of minimal dimension": greedily drops operations and
  columns while the check still fails, yielding the minimal scenarios
  reported in Table 2's "dimension" column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.budget import ExplorationControl
from repro.core.checker import (
    CheckConfig,
    CheckResult,
    check_with_harness,
)
from repro.core.events import Invocation
from repro.core.harness import HarnessError, SystemUnderTest, TestHarness
from repro.core.testcase import FiniteTest, enumerate_tests, sample_tests
from repro.core.verdict import worst_verdict
from repro.runtime import Scheduler

__all__ = [
    "CampaignResult",
    "auto_check",
    "minimize_failing_test",
    "random_check",
]


@dataclass
class CampaignResult:
    """Aggregate outcome of a multi-test campaign (Auto/RandomCheck).

    ``verdict`` merges the tests' verdicts with
    :func:`~repro.core.verdict.worst_verdict`: "FAIL" as soon as any test
    fails, else "CRASHED" when a test's subject crashed outside an
    operation, else "PASS" (a budget stop is ``stop_reason``).
    """

    verdict: str
    tests_run: int = 0
    tests_failed: int = 0
    failures: list[CheckResult] = field(default_factory=list)
    results: list[CheckResult] = field(default_factory=list)
    #: each test whose subject crashed outside an operation (verdict
    #: CRASHED), with the harness's message; the campaign goes on.
    crashes: list[tuple[FiniteTest, str]] = field(default_factory=list)
    #: why the campaign stopped early ("deadline", "executions",
    #: "decisions", "interrupted"), or None when it ran to completion.
    stop_reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @property
    def first_failure(self) -> CheckResult | None:
        return self.failures[0] if self.failures else None


def _run_campaign(
    subject: SystemUnderTest,
    tests: Iterable[FiniteTest],
    config: CheckConfig | None,
    stop_at_first_failure: bool,
    keep_results: bool,
    scheduler: Scheduler | None = None,
    control: ExplorationControl | None = None,
) -> CampaignResult:
    cfg = config or CheckConfig()
    if control is None and cfg.budget is not None:
        control = ExplorationControl(budget=cfg.budget)
    campaign = CampaignResult(verdict="PASS")
    verdicts: list[str] = []
    with TestHarness.from_config(subject, cfg, scheduler) as harness:
        for test in tests:
            if control is not None:
                reason = control.halt_reason()
                if reason is not None:
                    campaign.stop_reason = reason
                    break
            campaign.tests_run += 1
            try:
                result = check_with_harness(harness, test, cfg, control=control)
            except HarnessError as exc:
                verdicts.append("CRASHED")
                campaign.crashes.append((test, str(exc)))
                continue
            if keep_results:
                campaign.results.append(result)
            if result.failed:
                verdicts.append("FAIL")
                campaign.tests_failed += 1
                campaign.failures.append(result)
                if stop_at_first_failure:
                    break
            if result.exhausted:
                campaign.stop_reason = result.exhausted_reason
                break
    campaign.verdict = worst_verdict(verdicts)
    return campaign


def auto_check(
    subject: SystemUnderTest,
    invocations: Sequence[Invocation],
    max_n: int,
    config: CheckConfig | None = None,
    max_tests: int | None = None,
    stop_at_first_failure: bool = True,
    scheduler: Scheduler | None = None,
    control: ExplorationControl | None = None,
) -> CampaignResult:
    """AutoCheck (Fig. 6), bounded at dimension *max_n* / *max_tests*.

    For n = 1..max_n, checks every test in ``M^{I_n}_{n×n}`` where I_n is
    the first n elements of *invocations*.  A FAIL proves the subject is
    not deterministically linearizable (Theorem 5); a PASS only covers the
    bounded prefix of the infinite search.
    """

    def tests() -> Iterable[FiniteTest]:
        produced = 0
        for n in range(1, max_n + 1):
            alphabet = list(invocations[:n])
            if not alphabet:
                continue
            for test in enumerate_tests(alphabet, rows=n, cols=n):
                if max_tests is not None and produced >= max_tests:
                    return
                produced += 1
                yield test

    return _run_campaign(
        subject, tests(), config, stop_at_first_failure, keep_results=False,
        scheduler=scheduler, control=control,
    )


def random_check(
    subject: SystemUnderTest,
    invocations: Sequence[Invocation],
    rows: int = 3,
    cols: int = 3,
    samples: int = 100,
    seed: int = 0,
    config: CheckConfig | None = None,
    stop_at_first_failure: bool = False,
    keep_results: bool = False,
    init: Sequence[Invocation] = (),
    final: Sequence[Invocation] = (),
    scheduler: Scheduler | None = None,
    control: ExplorationControl | None = None,
) -> CampaignResult:
    """RandomCheck (Fig. 8): Check a uniform sample of finite tests.

    Defaults are the paper's evaluation setting (3×3 matrices, 100
    samples).  Embarrassingly parallel in principle; here sequential, with
    a deterministic seed so campaigns are reproducible.
    """
    tests = sample_tests(
        list(invocations), rows, cols, samples, seed=seed, init=init, final=final
    )
    return _run_campaign(
        subject, tests, config, stop_at_first_failure, keep_results,
        scheduler=scheduler, control=control,
    )


def _removal_candidates(test: FiniteTest) -> Iterable[FiniteTest]:
    """All tests obtained by deleting one operation or one empty column."""
    for t, column in enumerate(test.columns):
        for r in range(len(column)):
            new_columns = list(test.columns)
            new_columns[t] = column[:r] + column[r + 1 :]
            yield FiniteTest(tuple(new_columns), test.init, test.final)
    for t, column in enumerate(test.columns):
        if not column and len(test.columns) > 1:
            new_columns = list(test.columns)
            del new_columns[t]
            yield FiniteTest(tuple(new_columns), test.init, test.final)


def minimize_failing_test(
    subject: SystemUnderTest,
    test: FiniteTest,
    config: CheckConfig | None = None,
    still_fails: Callable[[CheckResult], bool] | None = None,
    scheduler: Scheduler | None = None,
) -> tuple[FiniteTest, CheckResult]:
    """Greedy ddmin: shrink a failing test while Check still fails.

    Returns the minimized test and its failing CheckResult.  The optional
    *still_fails* predicate restricts what counts as "the same" failure
    (e.g. same violation kind) so minimization does not slide onto a
    different bug.  Raises ValueError if *test* does not fail to begin
    with.
    """
    accept = still_fails if still_fails is not None else (lambda r: r.failed)
    cfg = config or CheckConfig()
    with TestHarness.from_config(subject, cfg, scheduler) as harness:
        result = check_with_harness(harness, test, config)
        if not accept(result):
            raise ValueError("minimize_failing_test requires a failing test")
        current, current_result = test, result
        progress = True
        while progress:
            progress = False
            for candidate in _removal_candidates(current):
                candidate_result = check_with_harness(harness, candidate, config)
                if accept(candidate_result):
                    current, current_result = candidate, candidate_result
                    progress = True
                    break
        # Drop empty columns left behind by operation removal.
        trimmed = tuple(col for col in current.columns if col)
        if trimmed and trimmed != current.columns:
            candidate = FiniteTest(trimmed, current.init, current.final)
            candidate_result = check_with_harness(harness, candidate, config)
            if accept(candidate_result):
                current, current_result = candidate, candidate_result
        return current, current_result
