"""Table 2: the full Line-Up campaign over all 13 classes, both vintages.

Methodology as in Section 5.1, scaled to this substrate: per class and
version, RandomCheck over a sample of 3x3 tests (random-walk phase 2),
plus re-validation of the curated minimal root-cause witnesses with the
exhaustive PB-2 checker.

Shape asserted against the paper:

* every seeded bug A–G is found in its pre class, and none in beta;
* the intentional behaviours H–L are reported in *both* versions;
* classes with no cause (TaskCompletionSource, ConcurrentLinkedList)
  pass everything — no false alarms;
* minimal failing dimensions are small (the small scope hypothesis);
* 12 distinct root causes in total, 7 of them bugs.

The detection count measures the sampler itself: per bug, over 64
sampled tests, how many FAIL and how many schedules they took to.
"""

from __future__ import annotations

from conftest import once

from repro.core import CheckConfig
from repro.core.campaign import campaign_row, render_table2, run_class_campaign
from repro.structures import REGISTRY, ROOT_CAUSES, get_class

CAMPAIGN_CONFIG = CheckConfig(
    phase2_strategy="random",
    phase2_executions=150,
    max_serial_executions=1800,
)

BUG_TAGS = {"A", "B", "C", "D", "E", "F", "G"}
INTENTIONAL_TAGS = {"H", "I", "J", "K", "L"}

#: Bug -> (its class, sampled tests that FAIL of 64, schedules to the
#: first FAIL summed over those tests): random phase 2 at 150 schedules,
#: 4 sampled 3x3 tests for each seed 1-16.  Seeded runs are exact, so
#: the gate is equality; EXPERIMENTS.md compares it with PCT and with
#: coverage-guided test generation.
DETECTION = {
    "A": ("ManualResetEvent", 17, 770),
    "B": ("SemaphoreSlim", 62, 326),
    "C": ("CountdownEvent", 40, 468),
    "D": ("ConcurrentQueue", 43, 513),
    "E": ("ConcurrentDictionary", 4, 188),
    "F": ("ConcurrentStack", 51, 1148),
    "G": ("Lazy", 64, 349),
}
DETECTION_SEEDS = range(1, 17)


def _run_campaign(scheduler, version):
    rows = []
    for entry in REGISTRY:
        rows.append(
            campaign_row(
                entry,
                version,
                samples=4,
                rows=3,
                cols=3,
                seed=1,
                config=CAMPAIGN_CONFIG,
                scheduler=scheduler,
            )
        )
    return rows


def test_table2_pre_campaign(benchmark, scheduler):
    rows = once(benchmark, _run_campaign, scheduler, "pre")
    found = {tag for row in rows for tag in row.causes_found}
    assert BUG_TAGS <= found, f"missing bugs: {BUG_TAGS - found}"
    assert INTENTIONAL_TAGS <= found
    assert len(found) == 12  # the paper's 12 root causes
    # Small scope hypothesis: every witness is at most 3x2 / 2x3.
    for row in rows:
        for dimension in row.min_dimensions.values():
            assert dimension[0] * dimension[1] <= 6
    # Clean classes stay clean even under the random campaign.
    by_name = {row.class_name: row for row in rows}
    assert by_name["TaskCompletionSource"].tests_failed == 0
    assert by_name["ConcurrentLinkedList"].tests_failed == 0
    print()
    print("=== Table 2 (technology preview) ===")
    print(render_table2(rows))


def test_table2_beta_campaign(benchmark, scheduler):
    rows = once(benchmark, _run_campaign, scheduler, "beta")
    found = {tag for row in rows for tag in row.causes_found}
    assert found == INTENTIONAL_TAGS, (
        f"beta must show exactly the documented behaviours, got {found}"
    )
    by_name = {row.class_name: row for row in rows}
    for clean in (
        "Lazy",
        "ManualResetEvent",
        "SemaphoreSlim",
        "CountdownEvent",
        "ConcurrentDictionary",
        "ConcurrentQueue",
        "ConcurrentStack",
        "ConcurrentLinkedList",
        "TaskCompletionSource",
    ):
        assert by_name[clean].tests_failed == 0, f"{clean}(beta) regressed"
    print()
    print("=== Table 2 (beta 2) ===")
    print(render_table2(rows))
    print()
    print("Root causes (Table 2 legend):")
    for tag in sorted(ROOT_CAUSES):
        cause = ROOT_CAUSES[tag]
        print(f"  {tag} [{cause.category:16s}] {cause.summary}")


def _detection(scheduler):
    counts = {}
    for tag, (name, _failed, _schedules) in DETECTION.items():
        failed = schedules = 0
        for seed in DETECTION_SEEDS:
            config = CheckConfig(
                phase2_strategy="random",
                phase2_executions=150,
                max_serial_executions=2000,
                seed=seed,
            )
            _row, summaries = run_class_campaign(
                get_class(name), "pre", samples=4, rows=3, cols=3,
                seed=seed, config=config, scheduler=scheduler,
            )
            for summary in summaries.values():
                if summary.verdict == "FAIL":
                    failed += 1
                    schedules += summary.schedules_explored
        counts[tag] = (name, failed, schedules)
    return counts


def test_detection_count(benchmark, scheduler):
    counts = once(benchmark, _detection, scheduler)
    print()
    print("=== Detection count (random, 150 schedules, seeds 1-16) ===")
    print(f"{'bug':3s} {'class':22s} {'FAIL of 64':>10s} {'sched to FAIL':>13s}")
    for tag, (name, failed, schedules) in counts.items():
        print(f"{tag:3s} {name:22s} {failed:10d} {schedules:13d}")
    assert counts == DETECTION
