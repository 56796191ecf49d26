"""AutoCheck (Fig. 6) and the pytest helpers on the counters of Section 2.

The paper's running example is a counter (Fig. 3) and two ways to get it
wrong (Section 2.2):

* ``BuggyCounter1.inc`` misses the lock, so two increments can be lost —
  a violation of classic linearizability (Definition 1);
* ``BuggyCounter2.get`` never releases the lock (Fig. 4), so a later
  operation blocks forever.  Every history is linearizable under
  Definition 1; only the blocking-aware Definition 3 rejects it.

``auto_check`` enumerates every n×n test over the first n invocations,
for n = 1, 2, ...; a FAIL is a proof (Theorem 5).  On ``BuggyCounter2``
a thread that calls ``get`` and then ``inc`` takes the lock twice, which
the runtime reports as a crash: such a test gets the verdict CRASHED
(with the crash in ``campaign.crashes``) and the enumeration goes on.
``repro.testing`` wraps the same checks in assertions for an ordinary
test suite (see docs/PORTING.md).

Run:  python examples/figure6_counters.py
"""

from repro import FiniteTest, Invocation, SystemUnderTest, auto_check
from repro.structures.counters import BuggyCounter1, BuggyCounter2, Counter
from repro.testing import (
    assert_linearizable,
    assert_not_linearizable,
    assert_test_fails,
    assert_test_passes,
)

INC, GET = Invocation("inc"), Invocation("get")
DEC, SET = Invocation("dec"), Invocation("set_value", (0,))


def main() -> None:
    print("AutoCheck (Fig. 6), n <= 2, over inc, get:")
    expected = {Counter: "PASS", BuggyCounter1: "FAIL", BuggyCounter2: "CRASHED"}
    for cls, want in expected.items():
        campaign = auto_check(SystemUnderTest(cls, cls.__name__), [INC, GET], max_n=2)
        summary = campaign.verdict
        if campaign.failures:
            lost_update = campaign.first_failure.test
            summary += (
                f" on a {lost_update.dimension} test of "
                f"{lost_update.total_operations} operations"
            )
        if campaign.crashes:
            test, message = campaign.crashes[0]
            summary += f" on {len(campaign.crashes)} tests, first {test}:\n    {message}"
        print(f"  {cls.__name__:14s} {campaign.tests_run:2d} tests  {summary}")
        assert campaign.verdict == want
        assert campaign.passed == (cls is Counter)

    # The same claims as assertions, the way a port's own tests make them.
    assert_linearizable(Counter, [INC, DEC, GET, SET], rows=2, cols=2, samples=3)
    assert_not_linearizable(BuggyCounter1, [INC, GET], rows=2, cols=2, samples=5)
    assert_test_passes(Counter, lost_update)  # BuggyCounter1's, from AutoCheck
    assert_test_fails(BuggyCounter1, lost_update)
    # Fig. 4: A's get keeps the lock, so B's inc blocks forever.  The
    # blocking is serially reproducible, so the automatic check, whose
    # specification comes from the same implementation, passes it;
    # tests/core/test_paper_counters.py rejects it against Fig. 3's spec.
    assert_test_passes(BuggyCounter2, FiniteTest.of([[INC, GET], [INC]]))
    print("repro.testing: the four assertions hold")

if __name__ == "__main__":
    main()
