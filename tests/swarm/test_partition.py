"""Decision-prefix partitioning: the exactness core of sharding.

The load-bearing property: the union of sibling shards explores exactly
the schedules one single-process DFS explores — same execution count,
same equivalence classes — because prefixes partition the tree.
Everything here runs in-process (no worker pool) so failures point at
the partition math, not at supervision.
"""

from __future__ import annotations

import pytest

from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.checker import CheckConfig, check_against_observations
from repro.core.harness import TestHarness
from repro.core.testcase import FiniteTest
from repro.core.events import Invocation
from repro.reduction import FingerprintSet
from repro.runtime.strategies import strategy_from_snapshot
from repro.swarm.partition import (
    children_from_lease,
    partition_prefixes,
    prefix_snapshot,
    shard_snapshot,
    split_shard_snapshot,
)
from repro.swarm.strategy import ShardStrategy

from tests.swarm.conftest import subject_for


def _test_of(columns) -> FiniteTest:
    return FiniteTest.of(
        [[Invocation(op, args) for op, args in column] for column in columns]
    )


def probe(harness, test, config, prefix):
    """The coordinator's probe, in-process: one execution of *prefix*'s
    plain DFS, split by :func:`children_from_lease`."""
    strategy = strategy_from_snapshot(prefix_snapshot(config, prefix, "none"))
    for _ in harness.explore_concurrent(test, strategy, max_executions=1):
        pass
    remaining = strategy.snapshot() if strategy.more() else None
    return children_from_lease(prefix, remaining)


def probe_in_process(harness, test, config, target, **kwargs):
    """:func:`partition_prefixes` probing each round with :func:`probe`."""

    def probe_round(frontier):
        return [
            (position, probe(harness, test, config, prefix))
            for position, prefix in enumerate(frontier)
        ], None

    plain, opaque, stop = partition_prefixes(probe_round, target, **kwargs)
    assert (opaque, stop) == ([], None)
    return plain


BUFFER_TEST = _test_of(
    [[("Put", (1,)), ("Take", ())], [("TryTake", ())]]
)


def _phase1(class_name, version, test, config):
    with TestHarness(
        subject_for(class_name, version), max_steps=config.max_steps
    ) as harness:
        observations, _stats = harness.run_serial(test)
    return observations


def _explore(
    class_name, version, test, config, observations, strategy=None, control=None
):
    fingerprints = FingerprintSet()
    with TestHarness(
        subject_for(class_name, version), max_steps=config.max_steps
    ) as harness:
        result = check_against_observations(
            harness,
            test,
            observations,
            config,
            control=control,
            strategy=strategy,
            fingerprints=fingerprints,
        )
    return result, fingerprints


class TestPartitionExactness:
    @pytest.mark.parametrize("reduction", ["none", "sleep", "dpor"])
    def test_shard_union_equals_single_process_dfs(self, reduction):
        config = CheckConfig(reduction=reduction)
        observations = _phase1("BoundedBuffer", "beta", BUFFER_TEST, config)
        single, single_fp = _explore(
            "BoundedBuffer", "beta", BUFFER_TEST, config, observations
        )
        assert single.phase2_complete

        with TestHarness(
            subject_for("BoundedBuffer", "beta"), max_steps=config.max_steps
        ) as harness:
            prefixes = probe_in_process(harness, BUFFER_TEST, config, 6)
        assert len(prefixes) >= 2

        union = FingerprintSet()
        total = 0
        for prefix in prefixes:
            strategy = strategy_from_snapshot(
                shard_snapshot(config, [prefix])
            )
            result, fingerprints = _explore(
                "BoundedBuffer",
                "beta",
                BUFFER_TEST,
                config,
                observations,
                strategy=strategy,
            )
            assert result.phase2_complete
            total += result.phase2_executions
            union.update(fingerprints)
        if reduction == "none":
            # Prefixes partition the *schedule* tree exactly; classes may
            # still be rediscovered across shards (two distinct schedules
            # in disjoint subtrees can share a happens-before class).
            assert total == single.phase2_executions
            assert len(union) == len(single_fp)
        else:
            # Sharded reduction is a sound over-approximation: it may
            # prune less (the reduction stacks are not seeded across the
            # shard boundary) but must cover every class the exhaustive
            # run covers.
            assert total >= single.phase2_executions
            assert len(union) >= len(single_fp)

    def test_leaf_prefixes_partition_fully(self):
        # Over-partition far past the tree size: every prefix becomes a
        # leaf (a single schedule), and the count equals the exhaustive
        # execution count exactly.
        config = CheckConfig()
        observations = _phase1("GoodRegister", "beta", REGISTER_TEST, config)
        single, _ = _explore(
            "GoodRegister", "beta", REGISTER_TEST, config, observations
        )
        with TestHarness(
            subject_for("GoodRegister", "beta"), max_steps=config.max_steps
        ) as harness:
            prefixes = probe_in_process(
                harness, REGISTER_TEST, config, 10_000, max_rounds=64
            )
        assert len(prefixes) == single.phase2_executions


REGISTER_TEST = _test_of([[("Set", (1,)), ("Get", ())], [("Get", ())]])


class TestShardStrategy:
    def _seeded(self, config, prefixes):
        return strategy_from_snapshot(shard_snapshot(config, prefixes))

    def test_snapshot_roundtrips_mid_flight(self):
        config = CheckConfig()
        observations = _phase1("GoodRegister", "beta", REGISTER_TEST, config)
        single, single_fp = _explore(
            "GoodRegister", "beta", REGISTER_TEST, config, observations
        )
        with TestHarness(
            subject_for("GoodRegister", "beta"), max_steps=config.max_steps
        ) as harness:
            prefixes = probe_in_process(harness, REGISTER_TEST, config, 4)

        # Explore in leases of 3 executions, serialising the strategy
        # between leases — the shard lease lifecycle in miniature.
        strategy = self._seeded(config, prefixes)
        union = FingerprintSet()
        total = 0
        leases = 0
        while strategy.more():
            leases += 1
            assert leases < 100, "lease loop failed to converge"
            control = ExplorationControl(
                budget=ExplorationBudget(max_executions=3)
            )
            result, fingerprints = _explore(
                "GoodRegister",
                "beta",
                REGISTER_TEST,
                config,
                observations,
                strategy=strategy,
                control=control,
            )
            total += result.phase2_executions
            union.update(fingerprints)
            strategy = ShardStrategy.from_snapshot(strategy.snapshot())
        assert leases > 1
        assert total == single.phase2_executions
        assert len(union) == len(single_fp)

    def test_counters_accumulate_across_subtrees(self):
        config = CheckConfig()
        with TestHarness(
            subject_for("GoodRegister", "beta"), max_steps=config.max_steps
        ) as harness:
            prefixes = probe_in_process(harness, REGISTER_TEST, config, 4)
        strategy = self._seeded(config, prefixes)
        observations = _phase1("GoodRegister", "beta", REGISTER_TEST, config)
        result, _ = _explore(
            "GoodRegister",
            "beta",
            REGISTER_TEST,
            config,
            observations,
            strategy=strategy,
        )
        assert strategy.snapshot()["executions"] == result.phase2_executions
        assert not strategy.more()


class TestSplit:
    def test_round_robin_deal_preserves_everything(self):
        config = CheckConfig()
        snap = shard_snapshot(config, [[], [], [], [], []])
        snap["executions"] = 7
        snap["pruned"] = 2
        parts = split_shard_snapshot(snap, 3)
        assert len(parts) == 3
        assert parts[0]["executions"] == 7 and parts[0]["pruned"] == 2
        assert all(p["executions"] == 0 for p in parts[1:])
        assert sum(len(p["pending"]) for p in parts) == 5
        assert all(len(p["pending"]) >= 1 for p in parts)

    def test_single_part_is_identity_of_pending(self):
        config = CheckConfig()
        snap = shard_snapshot(config, [[]])
        [part] = split_shard_snapshot(snap, 1)
        assert part["pending"] == snap["pending"]

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            split_shard_snapshot({"pending": []}, 0)


class TestPrefixSnapshot:
    def test_prefix_rows_marked_fully_tried(self):
        config = CheckConfig(reduction="sleep")
        snap = prefix_snapshot(
            config, [["thread", (0, 1), 0, False, 1, 0]]
        )
        assert snap["type"] == "sleep"
        [row] = snap["stack"]
        assert row[5] == [0, 1]  # tried == all options: no sibling visits
        assert row[4] == 1  # chosen pins the shard's branch
