"""Ablations of Line-Up's design choices (DESIGN.md Section 7).

Four experiments quantify why the design is the way it is:

1. **Preemption bound sweep** — executions to first violation for the
   Fig. 1 bug at PB = 0, 1, 2, unbounded.  PB 0 misses interference bugs
   entirely; PB 2 (the paper's default) finds them in few executions;
   unbounded search pays heavily for the same answer.
2. **Random vs exhaustive phase 2** — schedule samples until the first
   violation (the motivation for Section 4.3's random sampling).
3. **Observation grouping** (Fig. 7) — witness lookups through the
   profile index vs a linear scan over every serial history.
4. **Stuck-history checking on/off** — root cause A disappears when the
   checker ignores stuck executions (the Section 5.5 argument).
"""

from __future__ import annotations

import time

from conftest import once

from repro.core import (
    CheckConfig,
    FiniteTest,
    Invocation,
    SystemUnderTest,
    TestHarness,
    check,
)
from repro.core.witness import is_witness_for
from repro.runtime import DFSStrategy, RandomStrategy
from repro.structures import get_class

BC = get_class("BlockingCollection")
FIG1_TEST = next(c for c in BC.causes if c.tag == "D").witness_test
MRE = get_class("ManualResetEvent")
FIG9_TEST = MRE.causes[0].witness_test


def test_ablation_preemption_bound(benchmark, scheduler):
    subject = SystemUnderTest(BC.factory("pre"), "BlockingCollection(pre)")

    def sweep():
        rows = []
        for bound in (0, 1, 2, None):
            cfg = CheckConfig(
                preemption_bound=bound, max_concurrent_executions=60_000
            )
            t0 = time.perf_counter()
            result = check(subject, FIG1_TEST, cfg, scheduler=scheduler)
            rows.append(
                (bound, result.verdict, result.phase2_executions,
                 time.perf_counter() - t0)
            )
        return rows

    rows = once(benchmark, sweep)
    print()
    print("=== Ablation 1: preemption bound (Fig. 1 bug) ===")
    print(f"{'PB':>9s} {'verdict':>8s} {'executions':>11s} {'time':>9s}")
    for bound, verdict, executions, seconds in rows:
        label = "unbounded" if bound is None else str(bound)
        print(f"{label:>9s} {verdict:>8s} {executions:11d} {seconds * 1000:7.1f}ms")
    by_bound = {bound: (verdict, executions) for bound, verdict, executions, _ in rows}
    # The Fig. 1 interference needs at least one preemption.
    assert by_bound[0][0] == "PASS"
    assert by_bound[1][0] == "FAIL"
    assert by_bound[2][0] == "FAIL"
    assert by_bound[None][0] == "FAIL"
    # Higher bounds do not find it faster than PB=1 here.
    assert by_bound[1][1] <= by_bound[None][1]


def test_ablation_random_vs_exhaustive(benchmark, scheduler):
    subject = SystemUnderTest(MRE.factory("pre"), "ManualResetEvent(pre)")

    def compare():
        cfg_dfs = CheckConfig(preemption_bound=2)
        dfs_result = check(subject, FIG9_TEST, cfg_dfs, scheduler=scheduler)
        random_counts = []
        for seed in range(5):
            cfg_rnd = CheckConfig(
                phase2_strategy="random", phase2_executions=5000, seed=seed
            )
            rnd_result = check(subject, FIG9_TEST, cfg_rnd, scheduler=scheduler)
            random_counts.append(
                rnd_result.phase2_executions if rnd_result.failed else None
            )
        return dfs_result, random_counts

    dfs_result, random_counts = once(benchmark, compare)
    found_random = [c for c in random_counts if c is not None]
    print()
    print("=== Ablation 2: random vs exhaustive phase 2 on the Fig. 9 bug ===")
    print(f"DFS PB=2: {dfs_result.verdict} after {dfs_result.phase2_executions} executions")
    print(f"random walk (5 seeds): found by {len(found_random)}/5, "
          f"samples to violation: {found_random}")
    assert dfs_result.failed
    assert found_random, "random sampling should find the bug for some seed"


def test_ablation_observation_grouping(benchmark, scheduler):
    """Witness lookup: profile-indexed groups vs linear scan (Fig. 7)."""
    entry = get_class("ConcurrentQueue")
    subject = SystemUnderTest(entry.factory("beta"), "ConcurrentQueue(beta)")
    # A 3x3 test with diverse columns: phase 1 produces a spec whose
    # histories spread over many profile groups, the regime the Fig. 7
    # format is designed for.
    test = FiniteTest.of(
        [
            [Invocation("Enqueue", (10,)), Invocation("TryDequeue"), Invocation("Count")],
            [Invocation("Enqueue", (20,)), Invocation("Count"), Invocation("TryDequeue")],
            [Invocation("TryDequeue"), Invocation("Enqueue", (30,)), Invocation("Count")],
        ]
    )

    def measure():
        with TestHarness(subject, scheduler=scheduler) as harness:
            observations, _ = harness.run_serial(test)
            histories = [
                history
                for history, _o in harness.explore_concurrent(
                    test, DFSStrategy(preemption_bound=1), max_executions=2000
                )
                if not history.stuck
            ]
        # Warm the cached profiles so both loops time pure lookup work.
        for history in histories:
            history.profile
        for candidate in observations.full:
            candidate.profile_for(observations.n_threads)
        t0 = time.perf_counter()
        grouped_inspected = 0
        for history in histories:
            candidates = observations.full_candidates(history.profile)
            grouped_inspected += len(candidates)
            assert any(is_witness_for(c, history) for c in candidates)
        grouped = time.perf_counter() - t0
        t1 = time.perf_counter()
        linear_inspected = 0
        for history in histories:
            profile = history.profile
            linear_inspected += len(observations.full)
            assert any(
                c.profile_for(observations.n_threads) == profile
                and is_witness_for(c, history)
                for c in observations.full
            )
        linear = time.perf_counter() - t1
        return (
            len(histories),
            len(observations.full),
            grouped,
            linear,
            grouped_inspected,
            linear_inspected,
        )

    lookups, spec_size, grouped, linear, g_insp, l_insp = once(benchmark, measure)
    print()
    print("=== Ablation 3: observation grouping (Fig. 7) ===")
    print(f"{lookups} witness lookups against {spec_size} serial histories")
    print(
        f"grouped index: {grouped * 1000:7.2f} ms, "
        f"{g_insp / lookups:7.1f} candidates inspected per lookup"
    )
    print(
        f"linear scan:   {linear * 1000:7.2f} ms, "
        f"{l_insp / lookups:7.1f} candidates inspected per lookup"
    )
    # The structural win: the profile index narrows each lookup to a
    # fraction of the specification.  (Wall-clock differences are modest
    # in Python because tuple-equality filtering short-circuits.)
    assert g_insp * 3 < l_insp
    assert grouped < linear * 1.5


def test_ablation_stuck_checking_disabled(benchmark, scheduler):
    """Without Definition 2, root cause A is invisible (Section 5.5)."""
    from repro.core.witness import check_full_history

    subject = SystemUnderTest(MRE.factory("pre"), "ManualResetEvent(pre)")

    def classical_verdict():
        with TestHarness(subject, scheduler=scheduler) as harness:
            observations, _ = harness.run_serial(FIG9_TEST)
            for history, _o in harness.explore_concurrent(
                FIG9_TEST, DFSStrategy(preemption_bound=2)
            ):
                if history.stuck:
                    continue  # ablated: stuck histories ignored
                if check_full_history(history, observations) is None:
                    return "FAIL"
        return "PASS"

    verdict = once(benchmark, classical_verdict)
    full = check(subject, FIG9_TEST, scheduler=scheduler)
    print()
    print("=== Ablation 4: stuck-history checking ===")
    print(f"with Definition 2 (Line-Up):    {full.verdict}")
    print(f"without (classical Def. 1 only): {verdict}")
    assert verdict == "PASS"  # the ablated checker misses the bug
    assert full.failed
