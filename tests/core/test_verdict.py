"""The shared verdict lattice: one precedence order for every layer.

Campaigns, swarm merges, sharded watches, live runs and generation
campaigns all reduce per-unit verdicts through
:func:`repro.core.verdict.worst_verdict`; this table pins the order so a
re-shuffle shows up as a test diff, not as a silently re-ranked report.
"""

from __future__ import annotations

import pytest

from repro.core.verdict import VERDICT_PRECEDENCE, worst_verdict


class TestPrecedenceTable:
    def test_the_order_itself_is_pinned(self):
        assert VERDICT_PRECEDENCE == (
            "FAIL",
            "nondeterministic-verdict",
            "CRASHED",
            "LAGGED",
            "EXHAUSTED",
            "PASS",
        )

    @pytest.mark.parametrize(
        "verdicts,expected",
        [
            # empty pool: nothing bad observed
            ([], "PASS"),
            # singletons map to themselves
            (["FAIL"], "FAIL"),
            (["nondeterministic-verdict"], "nondeterministic-verdict"),
            (["CRASHED"], "CRASHED"),
            (["LAGGED"], "LAGGED"),
            (["EXHAUSTED"], "EXHAUSTED"),
            (["PASS"], "PASS"),
            # each adjacent pair in the lattice, both orders
            (["nondeterministic-verdict", "FAIL"], "FAIL"),
            (["FAIL", "nondeterministic-verdict"], "FAIL"),
            (["CRASHED", "nondeterministic-verdict"], "nondeterministic-verdict"),
            (["LAGGED", "CRASHED"], "CRASHED"),
            (["EXHAUSTED", "LAGGED"], "LAGGED"),
            (["PASS", "EXHAUSTED"], "EXHAUSTED"),
            # the full pool collapses to the worst
            (list(VERDICT_PRECEDENCE), "FAIL"),
            (list(reversed(VERDICT_PRECEDENCE)), "FAIL"),
            # repeated entries change nothing
            (["PASS", "PASS", "EXHAUSTED", "PASS"], "EXHAUSTED"),
            # the shard-verdict merges of a sharded watch (appended, so
            # the ids of the cases above stay put; empty → PASS is case 0)
            (["PASS", "FAIL", "EXHAUSTED"], "FAIL"),
            (["PASS", "CRASHED"], "CRASHED"),
            (["LAGGED", "EXHAUSTED"], "LAGGED"),
            (["EXHAUSTED", "PASS"], "EXHAUSTED"),
            (["PASS", "PASS"], "PASS"),
        ],
    )
    def test_worst_of_pool(self, verdicts, expected):
        assert worst_verdict(verdicts) == expected

    def test_accepts_any_iterable(self):
        assert worst_verdict(v for v in ("PASS", "CRASHED")) == "CRASHED"
        assert worst_verdict({"PASS", "EXHAUSTED"}) == "EXHAUSTED"

    def test_unknown_verdicts_surface_rather_than_normalize(self):
        # A verdict outside the lattice is a bug worth seeing: the first
        # element comes back verbatim instead of being masked as PASS.
        assert worst_verdict(["totally-new"]) == "totally-new"
        assert worst_verdict(["totally-new", "PASS"]) == "PASS"
