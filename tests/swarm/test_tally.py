"""The phase-2 counts are named once, and every place that copies,
persists, sums or prints them carries exactly those names.

One real check of ``Put(1); Take | TryTake`` feeds each place in turn:
its ``--json`` section, its checkpoint, one shard lease over the whole
schedule tree, a lineage built from that lease, the merge of that
lineage, and the result types that hold the counts as ``phase2_*``.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.checker import (
    PHASE2_TALLY,
    CheckConfig,
    CheckResult,
    check,
    phase2_tally,
    restore_phase2_tally,
    sum_tallies,
)
from repro.core.checkpoint import (
    Checkpointer,
    config_to_dict,
    load_checkpoint,
)
from repro.core.checkpoint import test_to_dict as encode_test
from repro.core.events import Invocation
from repro.core.observations import observations_to_xml
from repro.core.report import check_result_to_dict
from repro.core.testcase import FiniteTest
from repro.swarm import SwarmResult
from repro.swarm.merge import LEASE_TALLY, merge_lineage_states
from repro.swarm.partition import shard_snapshot
from repro.swarm.runner import _Lineage
from repro.swarm.worker import run_shard_task

from tests.swarm.conftest import FAULT_PROVIDER, subject_for

TEST = FiniteTest.of(
    [[Invocation("Put", (1,)), Invocation("Take", ())], [Invocation("TryTake", ())]]
)
NAMES = list(PHASE2_TALLY)
COUNTS = [name for name in NAMES if name != "seconds"]


def _counts(tally: dict) -> dict:
    return {name: tally[name] for name in COUNTS}


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """The check, with a checkpoint written after every execution."""
    path = str(tmp_path_factory.mktemp("tally") / "check.json")
    config = CheckConfig()
    result = check(
        subject_for("BoundedBuffer"),
        TEST,
        config,
        checkpointer=Checkpointer(path, every_executions=1),
    )
    assert result.passed and result.phase2_executions == 51
    return config, result, load_checkpoint(path)


@pytest.fixture(scope="module")
def lease(checked):
    """One lease of the whole tree, run in this process."""
    config, result, _ = checked
    spec = {
        "class_name": "BoundedBuffer",
        "version": "beta",
        "provider": FAULT_PROVIDER,
        "test": encode_test(TEST),
        "config": config_to_dict(config),
        "kind": "shard",
        "payload": {
            "shard": 0,
            "strategy": shard_snapshot(config, [[]]),
            "observations": observations_to_xml(result.observations),
            "lease_executions": None,
        },
    }
    reply = run_shard_task(spec)
    assert reply["verdict"] == "PASS"
    return reply["summary"]


def test_the_result_types_hold_each_count_as_a_phase2_field():
    for result_type in (CheckResult, SwarmResult):
        assert {
            f.name for f in fields(result_type) if f.name.startswith("phase2_")
        } == {f"phase2_{name}" for name in NAMES} | {"phase2_complete"}


def test_the_json_section_is_the_tally(checked):
    _, result, _ = checked
    section = check_result_to_dict(result)["phase2"]
    assert list(section) == NAMES + ["complete", "exhausted_reason"]
    assert {name: section[name] for name in NAMES} == phase2_tally(result)


def test_the_checkpoint_section_is_the_tally(checked):
    _, result, document = checked
    section = document["phase2"]
    assert list(section) == NAMES + ["fingerprints"]
    assert _counts(section) == _counts(phase2_tally(result))
    restored = CheckResult(verdict="PASS", test=TEST)
    restore_phase2_tally(restored, section)
    assert _counts(phase2_tally(restored)) == _counts(section)
    assert restored.phase2_seconds == section["seconds"] > 0


def test_a_lease_summary_carries_the_tally(checked, lease):
    _, result, _ = checked
    assert set(LEASE_TALLY) == set(NAMES) | {"pruned"}
    assert set(LEASE_TALLY) <= set(lease)
    # One lease over the whole tree walks it in the single run's order,
    # with the single run's PASS memo.
    assert _counts(lease) == _counts(phase2_tally(result))


def test_a_lineage_and_the_merge_sum_the_tally(lease):
    lineage = _Lineage(0, None)
    lineage.summaries[7] = lease
    state = lineage.state()
    assert sum_tallies([state], LEASE_TALLY) == sum_tallies([lease], LEASE_TALLY)

    # Restored from its shard file, the lineage still counts the lease
    # once; a second lease adds to it.
    resumed = _Lineage.from_state(0, state)
    resumed.summaries[9] = lease
    totals = merge_lineage_states([resumed.state()])["totals"]
    assert set(LEASE_TALLY) <= set(totals)
    assert _counts(totals) == {name: 2 * lease[name] for name in COUNTS}

    # An amended lease replaces its predecessor.
    resumed.summaries[9] = {**lease, "executions": 1}
    assert resumed.totals()["executions"] == lease["executions"] + 1


def test_a_sharded_result_takes_the_merged_tally(lease):
    totals = merge_lineage_states([_Lineage.from_state(0, lease).state()])["totals"]
    result = SwarmResult(verdict="PASS", subject="BoundedBuffer(beta)")
    restore_phase2_tally(result, totals)
    assert phase2_tally(result) == sum_tallies([lease])
    assert result.phase2_seconds == lease["seconds"]
