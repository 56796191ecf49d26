"""A pool owner that gets SIGKILLed (``test_start_methods.py``).

Run as ``python tests/exec/orphan_host.py METHOD REPORT_DIR``: starts a
two-worker pool, runs one trivial task on each worker so both are up and
idle, prints their pids and start methods as one JSON line, then sleeps
until killed.  A real file with a ``__main__`` guard because spawned
workers re-import the main module.
"""

from __future__ import annotations

import json
import sys
import time

from repro.core.checker import CheckConfig
from repro.core.checkpoint import config_to_dict, test_to_dict
from repro.core.events import Invocation
from repro.core.testcase import FiniteTest
from repro.exec import PoolConfig, TaskSpec, WorkerPool


def main(start_method: str, report_dir: str) -> None:
    test = test_to_dict(FiniteTest.of([[Invocation("Get")]]))
    config = config_to_dict(
        CheckConfig(phase2_strategy="random", phase2_executions=10, seed=1)
    )
    pool = WorkerPool(
        PoolConfig(
            workers=2,
            start_method=start_method,
            heartbeat_interval=0.05,
            report_dir=report_dir,
        )
    )
    tasks = [
        TaskSpec(i, "GoodRegister", "pre", test, config, "repro.exec.faults")
        for i in range(2)
    ]
    outcomes, _ = pool.run(tasks)
    # A quick first worker can take both tasks before the second has
    # said ``ready``; run() drains the pipes, so go round until it has.
    while not all(w.ready for w in pool._workers):
        pool.run(tasks)
    print(
        json.dumps(
            {
                "verdicts": [outcome.verdict for outcome in outcomes],
                "pids": [w.process.pid for w in pool._workers],
                "methods": [w.start_method for w in pool._workers],
            }
        ),
        flush=True,
    )
    time.sleep(600)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
