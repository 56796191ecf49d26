"""Generation with ``--isolate`` semantics: sandboxed candidate checks.

The worker pool runs ``kind="generate"`` tasks whose entire payload
(executions, fingerprints, failure record) must survive the supervisor's
verdict+summary-only reply contract; outcomes are folded in candidate
order so worker completion order never perturbs the corpus.
"""

from __future__ import annotations

import os

import pytest

from repro.core.checker import CheckConfig
from repro.exec import PoolConfig, WorkerPool
from repro.generate import GenerateConfig, run_generation_campaign
from repro.structures import get_class


@pytest.fixture
def start_method(single_threaded) -> str:
    return os.environ.get(
        "LINEUP_TEST_START_METHOD", PoolConfig().start_method
    )


class TestIsolatedGeneration:
    def test_pool_campaign_finds_the_seeded_bug(self, start_method, tmp_path):
        config = PoolConfig(
            workers=2,
            start_method=start_method,
            report_dir=str(tmp_path),
        )
        with WorkerPool(config) as pool:
            report = run_generation_campaign(
                get_class("Lazy"),
                "pre",
                CheckConfig(engine="coop"),
                GenerateConfig(budget=250, seed=1, batch=4),
                pool=pool,
            )
        assert report.candidates > 0
        assert report.classes > 0
        assert report.verdict == "FAIL"
        assert report.failures
        for failure in report.failures.values():
            # The failure record crossed the worker pipe intact.
            assert failure["matrix"]
            assert failure["description"]
        # Budget accounting is batch-granular: the campaign may overshoot
        # by at most one batch of candidates, never run unbounded.
        assert report.executions >= 250
