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

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first use:
#: the engine names below are all the CLI needs to build its parser, and
#: ``watch`` loads no scheduler to read them.
_EXPORTS = {
    "CoopScheduler": "repro.runtime.coop",
    "Runtime": "repro.runtime.env",
    "DecisionReplayError": "repro.runtime.errors",
    "ExecutionAbort": "repro.runtime.errors",
    "SchedulerError": "repro.runtime.errors",
    "Lock": "repro.runtime.locks",
    "AccessRecord": "repro.runtime.memory",
    "AtomicCell": "repro.runtime.memory",
    "PlainCell": "repro.runtime.memory",
    "SharedDict": "repro.runtime.memory",
    "SharedList": "repro.runtime.memory",
    "VolatileCell": "repro.runtime.memory",
    "Monitor": "repro.runtime.monitor",
    "Decision": "repro.runtime.scheduler",
    "ExecutionOutcome": "repro.runtime.scheduler",
    "Scheduler": "repro.runtime.scheduler",
    "SchedulingStrategy": "repro.runtime.scheduler",
    "dfs_with_reduction": "repro.runtime.strategies",
    "DFSStrategy": "repro.runtime.strategies",
    "RandomStrategy": "repro.runtime.strategies",
    "ReplayStrategy": "repro.runtime.strategies",
    "strategy_from_snapshot": "repro.runtime.strategies",
    "interrupt_thread": "repro.runtime.watchdog",
    "WatchdogConfig": "repro.runtime.watchdog",
}

#: Engine names accepted by :func:`make_scheduler` and the CLI.
ENGINES = ("baton", "coop")
#: The engine used when nothing selects one.
DEFAULT_ENGINE = "baton"


def make_scheduler(engine: str = DEFAULT_ENGINE, **kwargs):
    """Build a scheduler by engine name (``"baton"`` or ``"coop"``)."""
    if engine == "baton":
        from repro.runtime.scheduler import Scheduler

        return Scheduler(**kwargs)
    if engine == "coop":
        from repro.runtime.coop import CoopScheduler

        return CoopScheduler(**kwargs)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
    )


__all__ = sorted([*_EXPORTS, "DEFAULT_ENGINE", "ENGINES", "make_scheduler"])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
