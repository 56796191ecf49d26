"""Partial-order reduction head-to-head: none vs sleep sets vs DPOR.

For each subject and preemption bound, phase 2 is explored three times —
exhaustive DFS, DFS + sleep sets, and DPOR — and three facts are
recorded per cell: schedules explored, schedules pruned, and wall-clock.
Each row also carries the exhaustive cell's ``equivalence_classes``
(distinct execution fingerprints; ``classes`` is its distinct
*histories*) and ``fingerprint_seconds``, the time ``execution_fingerprint``
took over those executions — kept out of the cell's ``seconds``, which
stay comparable with older snapshots.

Shape asserted (the soundness contract of ``docs/REDUCTION.md``):

* every strategy yields the *same set of distinct histories* — reduction
  may never lose a behaviour, only skip equivalent replays of one;
* ``dpor <= sleep <= none`` in schedules explored, with ``dpor``
  *strictly* fewer than ``none`` wherever independent steps exist (every
  subject here at bound >= 2, the default check bound; bound 0 leaves no
  alternatives within budget, and at bound 1 the conservative
  backtrack-point propagation for bounded search can request every
  affordable switch);
* on the three-thread cell (3747 schedules), digesting the executions
  costs less than exploring them did — the digest is bookkeeping and
  must stay cheaper than the schedules it describes.

``python benchmarks/bench_reduction.py --quick`` runs a reduced matrix
as a CI smoke test (no pytest-benchmark needed); ``--full`` prints the
RESULTS.md table.
"""

from __future__ import annotations

import time

from repro.core import FiniteTest, Invocation, SystemUnderTest, TestHarness
from repro.reduction import execution_fingerprint
from repro.runtime import DFSStrategy, dfs_with_reduction
from repro.structures.bounded_buffer import BoundedBuffer
from repro.structures.concurrent_queue import ConcurrentQueue
from repro.structures.concurrent_stack import ConcurrentStack
from repro.structures.counters import Counter


def inv(method, *args):
    return Invocation(method, args)


#: name -> (factory, test).  Small matrices: every cell must finish an
#: *exhaustive* bounded DFS, which is the expensive baseline column.
SUBJECTS = {
    "Counter": (
        lambda rt: Counter(rt),
        FiniteTest.of([[inv("inc"), inv("get")], [inv("inc")]]),
    ),
    "BoundedBuffer": (
        lambda rt: BoundedBuffer(rt, capacity=1),
        FiniteTest.of([[inv("Put", 1), inv("Put", 2)], [inv("Take")]]),
    ),
    "ConcurrentStack": (
        lambda rt: ConcurrentStack(rt),
        FiniteTest.of([[inv("Push", 1), inv("TryPop")], [inv("Push", 2)]]),
    ),
    "ConcurrentQueue": (
        lambda rt: ConcurrentQueue(rt),
        FiniteTest.of([[inv("Enqueue", 1)], [inv("TryDequeue")]]),
    ),
}

#: The perfbench ``gate`` test: three threads, 3747 schedules at PB=2 —
#: the one cell large enough to time the digest against the exploration.
#: Exhaustive DFS at that bound only, outside the matrix: its unbounded
#: tree is out of a benchmark's reach, and the matrix's equal-history-set
#: assertion does not hold on it (sleep sets miss 16 and DPOR 18 of its
#: 499 histories at PB=2 — see ROADMAP.md).
DIGEST_SUBJECT = "ConcurrentQueue-3T"
MATRIX_SUBJECTS = list(SUBJECTS)
SUBJECTS[DIGEST_SUBJECT] = (
    lambda rt: ConcurrentQueue(rt),
    FiniteTest.of(
        [
            [inv("Enqueue", 1), inv("TryDequeue")],
            [inv("Enqueue", 2)],
            [inv("TryDequeue")],
        ]
    ),
)

REDUCTIONS = ("none", "sleep", "dpor")


def make_strategy(reduction, bound):
    if reduction == "none":
        return DFSStrategy(preemption_bound=bound)
    return dfs_with_reduction(reduction, preemption_bound=bound)


def explore(scheduler, name, bound, reduction, digest=False):
    """One cell: distinct histories, schedule count, pruned count, seconds.

    With *digest*, every execution is also fingerprinted as the checker
    does (right after it ran, then dropped); that time is reported apart,
    as ``fingerprint_seconds``, and is not part of ``seconds``.
    """
    factory, test = SUBJECTS[name]
    strategy = make_strategy(reduction, bound)
    histories = set()
    classes = set()
    executions = 0
    fingerprint_seconds = 0.0
    t0 = time.perf_counter()
    with TestHarness(
        SystemUnderTest(factory, name), scheduler=scheduler
    ) as harness:
        for history, outcome in harness.explore_concurrent(test, strategy):
            histories.add(history)
            executions += 1
            if digest:
                t1 = time.perf_counter()
                classes.add(execution_fingerprint(outcome))
                fingerprint_seconds += time.perf_counter() - t1
    cell = {
        "histories": histories,
        "schedules": executions,
        "pruned": getattr(strategy, "pruned", 0),
        "seconds": time.perf_counter() - t0 - fingerprint_seconds,
    }
    if digest:
        cell["equivalence_classes"] = len(classes)
        cell["fingerprint_seconds"] = fingerprint_seconds
    return cell


def run_matrix(scheduler, subjects, bounds):
    """Explore every (subject, bound, reduction) cell; verify soundness."""
    rows = []
    for name in subjects:
        for bound in bounds:
            # Plain DFS analyses nothing, so its cell times the whole digest.
            cells = {
                r: explore(scheduler, name, bound, r, digest=r == "none")
                for r in REDUCTIONS
            }
            reference = cells["none"]["histories"]
            for reduction in ("sleep", "dpor"):
                assert cells[reduction]["histories"] == reference, (
                    f"{name} PB={bound}: {reduction} changed the history set"
                )
            assert (
                cells["dpor"]["schedules"]
                <= cells["sleep"]["schedules"]
                <= cells["none"]["schedules"]
            ), f"{name} PB={bound}: reduction explored more than baseline"
            if bound is None or bound >= 2:
                assert cells["dpor"]["schedules"] < cells["none"]["schedules"], (
                    f"{name} PB={bound}: DPOR found nothing to prune"
                )
            rows.append((name, bound, cells))
    return rows


def run_digest_cell(scheduler):
    """The three-thread cell, where the digest is timed against the search."""
    cell = explore(scheduler, DIGEST_SUBJECT, 2, "none", digest=True)
    assert cell["fingerprint_seconds"] < cell["seconds"], (
        f"digesting {cell['schedules']} executions took "
        f"{cell['fingerprint_seconds']:.3f}s, exploring them "
        f"{cell['seconds']:.3f}s"
    )
    print(
        f"\n{DIGEST_SUBJECT} PB=2: {cell['schedules']} schedules explored in "
        f"{cell['seconds'] * 1000:.0f} ms, {cell['equivalence_classes']} "
        f"classes digested in {cell['fingerprint_seconds'] * 1000:.0f} ms"
    )
    return cell


def print_table(rows):
    print(
        f"\n{'subject':16s} {'PB':>4s} "
        f"{'none':>7s} {'sleep':>7s} {'dpor':>7s} {'classes':>8s} "
        f"{'none ms':>8s} {'sleep ms':>9s} {'dpor ms':>8s} "
        f"{'eq.cls':>7s} {'digest ms':>10s}"
    )
    for name, bound, cells in rows:
        pb = "inf" if bound is None else str(bound)
        print(
            f"{name:16s} {pb:>4s} "
            f"{cells['none']['schedules']:7d} "
            f"{cells['sleep']['schedules']:7d} "
            f"{cells['dpor']['schedules']:7d} "
            f"{len(cells['none']['histories']):8d} "
            f"{cells['none']['seconds'] * 1000:8.1f} "
            f"{cells['sleep']['seconds'] * 1000:9.1f} "
            f"{cells['dpor']['seconds'] * 1000:8.1f} "
            f"{cells['none']['equivalence_classes']:7d} "
            f"{cells['none']['fingerprint_seconds'] * 1000:10.1f}"
        )


def write_snapshot(rows, digest_cell, path):
    """Persist the matrix as a perf snapshot (``BENCH_reduction.json``)."""
    import benchlib

    cells_out = []
    for name, bound, cells in rows:
        cells_out.append(
            {
                "subject": name,
                "preemption_bound": bound,
                "classes": len(cells["none"]["histories"]),
                "equivalence_classes": cells["none"]["equivalence_classes"],
                "fingerprint_seconds": cells["none"]["fingerprint_seconds"],
                **{
                    reduction: {
                        "schedules": cells[reduction]["schedules"],
                        "pruned": cells[reduction]["pruned"],
                        "seconds": cells[reduction]["seconds"],
                    }
                    for reduction in REDUCTIONS
                },
            }
        )
    digest_out = {
        key: digest_cell[key]
        for key in (
            "schedules", "seconds", "equivalence_classes", "fingerprint_seconds"
        )
    }
    digest_out["classes"] = len(digest_cell["histories"])
    benchlib.write_snapshot(
        path, "reduction", {"rows": cells_out, "digest_cell": digest_out}
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points.


def test_reduction_matrix_bounded(benchmark, scheduler):
    from conftest import once

    rows = once(benchmark, run_matrix, scheduler, MATRIX_SUBJECTS, [0, 1, 2])
    print_table(rows)


def test_reduction_matrix_unbounded(benchmark, scheduler):
    from conftest import once

    rows = once(benchmark, run_matrix, scheduler, MATRIX_SUBJECTS, [None])
    print_table(rows)
    # Unbounded exploration is where independence is richest: DPOR must
    # cut the counter's schedule count by well over half.
    counter = next(cells for name, _b, cells in rows if name == "Counter")
    assert counter["dpor"]["schedules"] * 2 < counter["none"]["schedules"]


# ---------------------------------------------------------------------------
# Stand-alone smoke mode for CI (no pytest, no benchmark plugin).


def main(argv=None) -> int:
    import argparse

    from repro.runtime import Scheduler

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced matrix: a fast CI smoke test",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="the full RESULTS.md matrix (bounds 0-2 and unbounded)",
    )
    parser.add_argument(
        "--out", default="BENCH_reduction.json",
        help="perf snapshot path (default BENCH_reduction.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        subjects = ["Counter", "ConcurrentQueue"]
        bounds = [1, 2]
    else:
        subjects = MATRIX_SUBJECTS
        bounds = [0, 1, 2, None]

    scheduler = Scheduler()
    try:
        rows = run_matrix(scheduler, subjects, bounds)
        print_table(rows)
        digest_cell = run_digest_cell(scheduler)
    finally:
        scheduler.shutdown()
    write_snapshot(rows, digest_cell, args.out)
    print(
        "\nsmoke PASS: identical history sets; "
        "dpor <= sleep <= none schedules everywhere; "
        "digest cheaper than exploration"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
