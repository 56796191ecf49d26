"""Fixtures for the sharded-exploration (swarm) suite.

Like the isolation suite, the multiprocessing start method comes from
``LINEUP_TEST_START_METHOD`` so CI can exercise both ``fork`` and
``spawn`` (default: the pool's own).  The in-process fixtures (harness,
single-process baseline) exist so equivalence tests can compare a
sharded run against the exact single-process exhaustive numbers without
hardcoding them.
"""

from __future__ import annotations

import os

import pytest

from repro.core.checker import CheckConfig, check
from repro.core.harness import SystemUnderTest
from repro.core.testcase import FiniteTest
from repro.exec.faults import get_class
from repro.exec.supervisor import PoolConfig

FAULT_PROVIDER = "repro.exec.faults"


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


def subject_for(class_name: str, version: str = "beta") -> SystemUnderTest:
    entry = get_class(class_name)
    return SystemUnderTest(
        entry.factory(version), f"{entry.name}({version})"
    )


def single_process_baseline(
    class_name: str, version: str, test: FiniteTest, config: CheckConfig
):
    """The exact single-process exhaustive result sharding must match."""
    return check(subject_for(class_name, version), test, config)
