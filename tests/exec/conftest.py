"""Fixtures for the process-isolation suite.

The start method is taken from ``LINEUP_TEST_START_METHOD`` so CI can run
the same tests under both ``fork`` and ``spawn`` (see the isolation
job in ``.github/workflows/ci.yml``); locally it defaults to the method
the pool defaults to (``fork`` where the platform has it).
"""

from __future__ import annotations

import os

import pytest

from repro.core.checker import CheckConfig
from repro.core.checkpoint import config_to_dict, test_to_dict
from repro.core.events import Invocation
from repro.core.testcase import FiniteTest
from repro.exec import PoolConfig, TaskSpec

FAULT_PROVIDER = "repro.exec.faults"

#: Small, deterministic phase-2 settings so worker checks finish fast.
FAST_CONFIG = config_to_dict(
    CheckConfig(phase2_strategy="random", phase2_executions=10, seed=1)
)


@pytest.fixture(scope="session")
def start_method() -> str:
    return os.environ.get(
        "LINEUP_TEST_START_METHOD", PoolConfig().start_method
    )


@pytest.fixture
def pool_config(start_method, tmp_path, single_threaded):
    """Factory for fast-supervision pool configs writing into tmp_path.

    ``single_threaded``: a pool asked to fork does so only from a caller
    without other threads.
    """

    def make(**overrides) -> PoolConfig:
        settings = {
            "workers": 2,
            "start_method": start_method,
            "heartbeat_interval": 0.05,
            "ready_timeout": 60.0,
            "backoff_seconds": 0.01,
            "report_dir": str(tmp_path / "reports"),
        }
        settings.update(overrides)
        return PoolConfig(**settings)

    return make


def make_spec(
    index: int, class_name: str, columns, provider: str = FAULT_PROVIDER
) -> TaskSpec:
    """Build a TaskSpec from ``[["Op", ...], ...]`` column shorthand."""
    test = FiniteTest.of(
        [[Invocation(op) for op in column] for column in columns]
    )
    return TaskSpec(
        index=index,
        class_name=class_name,
        version="pre",
        test=test_to_dict(test),
        config=FAST_CONFIG,
        provider=provider,
    )
