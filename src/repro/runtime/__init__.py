"""The stateless model-checking runtime (the paper's CHESS substitute).

Public surface:

* :class:`Scheduler` — serializes logical threads and enumerates their
  interleavings at the granularity of instrumented operations (the
  ``baton`` engine: real OS threads handed a lock baton).
* :class:`CoopScheduler` — the same exploration with zero OS threads in
  the common path (the ``coop`` engine: generator tasks resumed with
  ``send()``); :func:`make_scheduler` selects between the two by name.
  Both are drivers of one interpreter, :mod:`repro.runtime.core`, whose
  ``SerialDriver`` runs serial mode (phase 1) on no engine at all.
* :class:`Runtime` — the facade through which code under test allocates
  instrumented shared state (cells, atomics, locks, containers).
* :class:`DFSStrategy`, :class:`RandomStrategy`, :class:`ReplayStrategy` —
  exploration strategies (exhaustive / sampled / single replay).
"""

from repro.runtime.coop import CoopScheduler
from repro.runtime.env import Runtime
from repro.runtime.errors import (
    DecisionReplayError,
    ExecutionAbort,
    SchedulerError,
)
from repro.runtime.locks import Lock
from repro.runtime.monitor import Monitor
from repro.runtime.memory import (
    AccessRecord,
    AtomicCell,
    PlainCell,
    SharedDict,
    SharedList,
    VolatileCell,
)
from repro.runtime.scheduler import (
    Decision,
    ExecutionOutcome,
    Scheduler,
    SchedulingStrategy,
    thread_name,
)
from repro.runtime.strategies import (
    DFSStrategy,
    IterativeDFSStrategy,
    PCTStrategy,
    RandomStrategy,
    ReplayStrategy,
    dfs_with_reduction,
    strategy_from_snapshot,
)
from repro.runtime.watchdog import WatchdogConfig, interrupt_thread

#: Engine names accepted by :func:`make_scheduler` and the CLI.
ENGINES = ("baton", "coop")
#: The engine used when nothing selects one.
DEFAULT_ENGINE = "baton"


def make_scheduler(engine: str = DEFAULT_ENGINE, **kwargs):
    """Build a scheduler by engine name (``"baton"`` or ``"coop"``)."""
    if engine == "baton":
        return Scheduler(**kwargs)
    if engine == "coop":
        return CoopScheduler(**kwargs)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
    )


__all__ = [
    "AccessRecord",
    "AtomicCell",
    "CoopScheduler",
    "Decision",
    "DecisionReplayError",
    "DEFAULT_ENGINE",
    "DFSStrategy",
    "ENGINES",
    "ExecutionAbort",
    "ExecutionOutcome",
    "IterativeDFSStrategy",
    "Lock",
    "Monitor",
    "PCTStrategy",
    "PlainCell",
    "RandomStrategy",
    "ReplayStrategy",
    "Runtime",
    "Scheduler",
    "SchedulerError",
    "SchedulingStrategy",
    "SharedDict",
    "SharedList",
    "VolatileCell",
    "WatchdogConfig",
    "dfs_with_reduction",
    "interrupt_thread",
    "make_scheduler",
    "strategy_from_snapshot",
    "thread_name",
]
