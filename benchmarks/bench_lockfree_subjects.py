"""Beyond the ports: checking genuine lock-free algorithms.

Two classic lock-free subjects exercise the checker the way its authors
intended — on algorithms whose correctness argument is subtle enough
that the literature proves them by simulation (the paper's related-work
section cites exactly such proofs for the lazy list):

* the **Chase–Lev work-stealing deque**, whose aborting ``Steal`` is a
  method that "fails on interference" — strict mode rejects it, the
  Section 6 policy accepts it, and the seeded last-element-race bug is
  rejected by both;
* the **Harris lock-free set**, where Line-Up automatically validates
  insert/remove/contains (including the marked-node helping protocol)
  and automatically *rediscovers* that iteration is only weakly
  consistent — the textbook caveat, found as a concrete 4-operation
  counterexample instead of stated as folklore.
"""

from __future__ import annotations

from conftest import once

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    InterferencePolicy,
    InterferenceRule,
    SystemUnderTest,
    TestHarness,
    check,
    check_relaxed,
)
from tests.structures.lock_free_set import LockFreeSet
from tests.structures.work_stealing_deque import WorkStealingDeque


def _inv(method, *args):
    return Invocation(method, args)


STEAL_POLICY = InterferencePolicy(
    [InterferenceRule("Steal", interferers=("Steal",))]
)
TWO_THIEVES = FiniteTest.of(
    [[_inv("PushBottom", 1), _inv("PushBottom", 2)], [_inv("Steal")], [_inv("Steal")]]
)
OWNER_THIEF = FiniteTest.of(
    [[_inv("PushBottom", 1), _inv("PopBottom")], [_inv("Steal")]]
)


def test_chase_lev_strict_vs_relaxed(benchmark, scheduler):
    def run():
        rows = []
        beta = SystemUnderTest(lambda rt: WorkStealingDeque(rt, "beta"), "wsd")
        pre = SystemUnderTest(lambda rt: WorkStealingDeque(rt, "pre"), "wsd-pre")
        rows.append(("beta two-thieves strict",
                     check(beta, TWO_THIEVES, scheduler=scheduler).verdict))
        with TestHarness(beta, scheduler=scheduler) as harness:
            rows.append(("beta two-thieves relaxed",
                         check_relaxed(harness, TWO_THIEVES, CheckConfig(),
                                       STEAL_POLICY).verdict))
        rows.append(("pre owner-thief strict",
                     check(pre, OWNER_THIEF, scheduler=scheduler).verdict))
        with TestHarness(pre, scheduler=scheduler) as harness:
            rows.append(("pre owner-thief relaxed",
                         check_relaxed(harness, OWNER_THIEF, CheckConfig(),
                                       STEAL_POLICY).verdict))
        return rows

    rows = once(benchmark, run)
    print()
    print("=== Chase-Lev deque: strict vs relaxed ===")
    for label, verdict in rows:
        print(f"  {label:28s}: {verdict}")
    verdicts = dict(rows)
    assert verdicts["beta two-thieves strict"] == "FAIL"  # aborting steals
    assert verdicts["beta two-thieves relaxed"] == "PASS"  # ... are spec
    assert verdicts["pre owner-thief strict"] == "FAIL"  # duplication bug
    assert verdicts["pre owner-thief relaxed"] == "FAIL"  # not excusable


def test_harris_set_validated_and_iteration_caveat_found(benchmark, scheduler):
    def run():
        beta = SystemUnderTest(lambda rt: LockFreeSet(rt, "beta"), "lfset")
        core = check(
            beta,
            FiniteTest.of(
                [
                    [_inv("Insert", 1), _inv("Remove", 1)],
                    [_inv("Insert", 1), _inv("Contains", 1)],
                ]
            ),
            scheduler=scheduler,
        )
        helping = check(
            beta,
            FiniteTest.of(
                [
                    [_inv("Remove", 1), _inv("Insert", 3)],
                    [_inv("Remove", 1), _inv("Contains", 3)],
                ],
                init=[_inv("Insert", 1)],
            ),
            scheduler=scheduler,
        )
        iteration = check(
            beta,
            FiniteTest.of(
                [[_inv("ToArray")], [_inv("Insert", 1), _inv("Insert", 7)]],
                init=[_inv("Insert", 5)],
            ),
            scheduler=scheduler,
        )
        return core, helping, iteration

    core, helping, iteration = once(benchmark, run)
    print()
    print("=== Harris set ===")
    print(f"  insert/remove/contains:   {core.verdict} "
          f"({core.phase2_executions} executions)")
    print(f"  helping under contention: {helping.verdict} "
          f"({helping.phase2_executions} executions)")
    print(f"  concurrent iteration:     {iteration.verdict} "
          f"(weak consistency rediscovered)")
    assert core.passed and helping.passed
    assert iteration.failed
    snapshot = next(
        op
        for op in iteration.violation.history.operations
        if op.invocation.method == "ToArray"
    )
    print(f"  counterexample snapshot:  {snapshot.response.value}")
