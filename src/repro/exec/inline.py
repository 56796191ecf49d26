"""The in-process executor: :class:`WorkerPool`'s contract, no workers.

Campaigns and generation plan :class:`TaskSpec` lists and fold
:class:`TaskOutcome` lists; *where* a task runs is the executor's
business.  :class:`InlineExecutor` runs each task in the caller's
process through the very dispatch a sandboxed worker uses
(:func:`repro.exec.sandbox._run_task`), so ``--isolate`` selects an
executor and nothing else.

What is given up is containment: a subject that kills its process kills
the caller, so nothing here retries, quarantines or re-checks a FAIL.
What is gained is exactness: the caller's ``control`` reaches into the
running check, so a budget trips — and a SIGINT lands — between two
executions rather than between two tasks.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.budget import ExplorationControl
from repro.exec import sandbox
from repro.exec.supervisor import TaskOutcome, TaskSpec

__all__ = ["InlineExecutor"]


class InlineExecutor:
    """Runs tasks one after another, in list order, in this process."""

    #: Tasks run under the caller's ``control`` and are metered by it; a
    #: pool's tasks are not (callers charge the reported work afterwards).
    inline = True

    def __init__(self, scheduler=None) -> None:
        #: A caller-provided scheduler is borrowed for every task and
        #: never shut down here.
        self._borrowed = scheduler
        #: (engine settings, the scheduler built for them), once needed.
        self._owned: tuple | None = None

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._owned is not None:
            self._owned[1].shutdown()
            self._owned = None

    def _scheduler(self, spec: TaskSpec):
        """The scheduler for *spec*, kept alive while engine settings last.

        A scheduler owns the OS threads (or generators) every execution
        runs on; building one per task would pay that set-up thousands
        of times in a campaign.
        """
        if self._borrowed is not None:
            return self._borrowed
        from repro.core.checkpoint import config_from_dict
        from repro.runtime import make_scheduler

        config = config_from_dict(spec.config or {})
        key = (config.engine, config.max_steps, config.watchdog_seconds)
        if self._owned is None or self._owned[0] != key:
            self.close()
            self._owned = key, make_scheduler(
                config.engine,
                max_steps=config.max_steps,
                watchdog=config.watchdog_seconds,
            )
        return self._owned[1]

    def run(
        self,
        tasks: list[TaskSpec],
        *,
        prior_retries: dict[int, int] | None = None,
        control: ExplorationControl | None = None,
        on_outcome: Callable[[TaskOutcome, dict[int, int]], None] | None = None,
        quarantine_extra: Callable[[TaskSpec], dict | None] | None = None,
    ) -> tuple[list[TaskOutcome], str | None]:
        """Run *tasks* to completion (or halt); returns (outcomes, stop).

        Same contract as :meth:`WorkerPool.run`.  A task the halt cut
        short has **no** outcome — its statistics are partial — so the
        caller re-runs it from scratch on resume.  *prior_retries* and
        *quarantine_extra* belong to crash handling and have nothing to
        act on here; the retry map handed to *on_outcome* is empty.
        """
        if control is not None:
            control.start()
        outcomes: list[TaskOutcome] = []
        stop_reason: str | None = None
        for spec in tasks:
            if control is not None:
                stop_reason = control.halt_reason()
                if stop_reason is not None:
                    break
            payload = sandbox._run_task(
                spec.to_message(),
                scheduler=self._scheduler(spec),
                control=control,
            )
            summary = payload.get("summary")
            if payload["verdict"] == "EXHAUSTED":
                stop_reason = (summary or {}).get("exhausted_reason")
                break
            outcome = TaskOutcome(
                index=spec.index,
                verdict=payload["verdict"],
                summary=summary,
                verdicts=[payload["verdict"]],
            )
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome, {})
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes, stop_reason
