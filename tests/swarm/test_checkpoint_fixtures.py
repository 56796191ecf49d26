"""Checkpoints written by an earlier build still resume, to the same counts.

``tests/fixtures/checkpoints`` holds two partial runs of the BoundedBuffer
test ``Put(1); Take | TryTake`` (fault provider, beta), each stopped by a
30-execution budget:

* ``check/check.json`` — a single-process check stopped in phase 2;
* ``swarm/swarm.json`` and its three shard files — a sharded check
  (3 shards, leases of 8) written with the relative ``--checkpoint``
  path ``swarm.json``, so the main document names its shard files
  relative to the directory it was written from.

Resumed without the budget, each must finish at the single-process
counts: the checkpoint and shard-result formats are read as written.
A copy edited to name a retired phase-2 strategy is refused instead.

``campaign/campaign.json`` is ``campaign Lazy --versions pre,beta
--samples 4 --rows 2 --cols 2 --schedules 40 --seed 5 --deadline 0.15``
stopped with the pre row finished and three beta tests summarized, by a
build whose rows and summaries still carried an ``equivalence_classes``
count; it resumes to the rows of an uninterrupted campaign.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.budget import ExplorationControl
from repro.core.campaign import parse_campaign_state, run_campaign_plan
from repro.core.checker import CheckConfig, check
from repro.core.checkpoint import load_checkpoint, parse_check_state
from repro.exec import InlineExecutor, WorkerPool
from repro.swarm import SwarmConfig, swarm_check
from repro.swarm.runner import parse_swarm_state

from tests.swarm.conftest import (
    FAULT_PROVIDER,
    single_process_baseline,
    subject_for,
)

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "checkpoints"
)


def _counts(result) -> tuple:
    return (
        result.verdict,
        result.phase2_complete,
        result.phase2_executions,
        result.phase2_full,
        result.phase2_stuck,
        result.phase2_divergent,
        result.equivalence_classes,
    )


def _copy(kind: str, tmp_path) -> str:
    target = tmp_path / kind
    shutil.copytree(os.path.join(FIXTURES, kind), target)
    return str(target)


def test_a_check_checkpoint_resumes_to_the_single_process_counts(tmp_path):
    path = os.path.join(_copy("check", tmp_path), "check.json")
    test, config, resume = parse_check_state(load_checkpoint(path))
    assert resume.phase == "phase2" and resume.phase2["executions"] == 27
    resume.budget_snapshot = None
    result = check(
        subject_for("BoundedBuffer"), test, replace(config, budget=None),
        resume=resume,
    )
    baseline = single_process_baseline(
        "BoundedBuffer", "beta", test, CheckConfig()
    )
    assert _counts(result) == _counts(baseline)
    assert (result.phase2_executions, result.equivalence_classes) == (51, 28)
    assert result.phase1 == baseline.phase1
    # The PASS memo is not checkpointed: a resumed run may judge a history
    # the first session already judged, never fewer than one run does.
    assert baseline.phase2_judged <= result.phase2_judged <= 51


def test_a_swarm_checkpoint_resumes_to_the_single_process_counts(
    pool_config, tmp_path, monkeypatch
):
    monkeypatch.chdir(_copy("swarm", tmp_path))
    document = load_checkpoint("swarm.json")
    subject, test, config, swarm = parse_swarm_state(document)
    assert swarm == SwarmConfig(shards=3, lease_executions=8)
    assert sorted(document["shard_files"].values()) == [
        f"swarm.json.shard-{shard}.json" for shard in range(3)
    ]
    with WorkerPool(pool_config()) as pool:
        result = swarm_check(
            subject["cls"],
            subject["version"],
            test,
            config,
            provider=subject["provider"],
            swarm=swarm,
            pool=pool,
            checkpoint_path="swarm.json",
            resume_document=document,
        )
    assert subject["provider"] == FAULT_PROVIDER
    baseline = single_process_baseline("BoundedBuffer", "beta", test, config)
    assert _counts(result) == _counts(baseline)
    assert result.phase1 == baseline.phase1
    # The counts restored from the shard files are part of the sums.
    assert result.leases > 4 and result.partition_probes == 15
    assert result.phase2_judged >= baseline.phase2_judged


@pytest.mark.parametrize(
    "field, value, retired",
    [
        ("config", {"phase2_strategy": "pct"}, "pct"),
        ("strategy", {"type": "iterative"}, "iterative"),
    ],
    ids=["config", "snapshot"],
)
def test_a_checkpoint_of_a_retired_strategy_is_refused(
    tmp_path, capsys, field, value, retired
):
    """PCT and iterative context bounding left the checker: ``resume``
    names the strategy and exits 64 (a traceback would fail the call)."""
    path = os.path.join(_copy("check", tmp_path), "check.json")
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    document[field] = {**document[field], **value}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    assert main(["resume", path]) == 64
    assert f"retired phase-2 strategy {retired!r}" in capsys.readouterr().err


#: The campaign row columns that are a function of (class, version, seed).
CAMPAIGN_COLUMNS = (
    "class_name", "version", "tests_run", "tests_passed", "tests_failed",
    "tests_crashed", "stuck_tests", "histories_avg", "histories_max",
    "schedules_explored", "schedules_pruned", "causes_found",
    "min_dimensions",
)


def _campaign_rows(plan, params, **resume) -> list[tuple]:
    config = CheckConfig(
        phase2_strategy="random",
        phase2_executions=params["schedules"],
        seed=params["seed"],
        max_serial_executions=2000,
    )
    with InlineExecutor() as executor:
        rows, stop_reason, quarantined = run_campaign_plan(
            plan, params, config, executor, control=ExplorationControl(),
            **resume,
        )
    assert stop_reason is None and quarantined == []
    return [tuple(getattr(row, name) for name in CAMPAIGN_COLUMNS) for row in rows]


def test_a_campaign_checkpoint_resumes_to_the_uninterrupted_rows(tmp_path, capsys):
    path = os.path.join(_copy("campaign", tmp_path), "campaign.json")
    document = load_checkpoint(path)
    assert "equivalence_classes" in document["finished_rows"][0]
    plan, finished, params, current = parse_campaign_state(document)
    assert plan == [("Lazy", "pre"), ("Lazy", "beta")]
    assert [(row.class_name, row.version) for row in finished] == [("Lazy", "pre")]
    assert current[:2] == ("Lazy", "beta") and sorted(current[2]) == [0, 1, 2]

    resumed = _campaign_rows(
        plan, params, finished_rows=finished, resume_current=current
    )
    assert resumed == _campaign_rows(plan, params)
    assert [row[:5] for row in resumed] == [
        ("Lazy", "pre", 4, 2, 2), ("Lazy", "beta", 4, 4, 0),
    ]

    # The command that wrote it takes it back: Lazy pre fails (exit 1).
    assert main(["resume", path, "--deadline", "60"]) == 1
    table = capsys.readouterr().out
    assert "campaign budget exhausted" not in table
    assert [line.split()[:2] for line in table.splitlines() if line.startswith("Lazy")] == [
        ["Lazy", "pre"], ["Lazy", "beta"],
    ]
