"""The supervisor side of process isolation: the worker pool.

The :class:`WorkerPool` fans tests across N sandboxed child processes
(also a wall-clock win — campaigns are embarrassingly parallel per
test), and is built around one invariant: **a subject can kill a worker,
never the campaign**.  The supervisor's per-worker state machine:

::

    SPAWNED ──ready──▶ IDLE ──task──▶ BUSY ──result──▶ IDLE
       │                 │              │
       │ (no ready       │ (death)     │ (death, heartbeat loss,
       │  in time)       ▼              ▼  task timeout, task-error)
       └────────────▶ CRASHED: retry the task with exponential
                      backoff; after ``max_retries`` retries the test
                      is QUARANTINED — a ``CRASHED`` verdict plus a
                      crash-report artifact — and the campaign goes on.

Crash detection is threefold: process death (exit code / deadly signal
via the process sentinel), heartbeat loss (the whole process is wedged —
stopped, thrashing, or stuck in an uninterruptible syscall), and an
optional per-task wall-clock timeout.

The **flaky-verdict guard**: a worker that hosted a hostile subject may
have been corrupted by it (the very premise of isolating workers), so
when a worker crashes, FAIL verdicts it produced in its lifetime are
re-run once on a fresh worker.  A re-run that still FAILs confirms the
verdict; a re-run that PASSes is a disagreement — the test is run once
more and reported explicitly as ``nondeterministic-verdict`` rather than
silently keeping the first answer.  (PASS verdicts are not re-checked:
a FAIL is an actionable proof per Theorem 5 and earns the scrutiny.)
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import signal as signal_module
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.budget import ExplorationControl
from repro.core.fileio import atomic_write_text
from repro.exec import sandbox
from repro.exec.protocol import ProtocolError, recv_message, send_message
from repro.exec.sandbox import ResourceLimits

__all__ = [
    "CRASH_REPORT_FORMAT",
    "CRASH_REPORT_VERSION",
    "PoolConfig",
    "SupervisorError",
    "TaskOutcome",
    "TaskSpec",
    "WorkerPool",
    "open_pool",
    "repro_command",
]

CRASH_REPORT_FORMAT = "lineup-crash-report"
CRASH_REPORT_VERSION = 1

#: Verdict assigned to quarantined tests.
CRASHED = "CRASHED"
#: Verdict assigned when re-runs of a FAIL disagree (flaky-verdict guard).
NONDETERMINISTIC_VERDICT = "nondeterministic-verdict"


class SupervisorError(Exception):
    """The pool itself failed (spawn failures, misuse) — not a test crash."""


@dataclass(frozen=True)
class TaskSpec:
    """One check to run in a worker: subject by name, test, config.

    ``test`` and ``config`` are the JSON forms of
    :func:`repro.core.checkpoint.test_to_dict` /
    :func:`~repro.core.checkpoint.config_to_dict`; ``provider`` names the
    module whose ``get_class`` resolves ``class_name`` inside the worker.

    ``kind`` selects the worker entry point: ``"check"`` runs a full
    two-phase check, and ``"shard"`` runs one lease of a sharded
    exploration (:mod:`repro.swarm.worker`; a partition probe is a lease
    of one execution); ``payload`` carries the kind-specific
    arguments across the pipe.  ``swarm`` is supervision metadata only —
    the sharding flags of the owning swarm run, so crash-report repro
    commands stay copy-pasteable — and never crosses to the worker.
    """

    index: int
    class_name: str
    version: str
    test: dict
    config: dict = field(default_factory=dict)
    provider: str | None = None
    kind: str = "check"
    payload: dict | None = None
    swarm: dict | None = None

    def to_message(self) -> dict:
        return {
            "class_name": self.class_name,
            "version": self.version,
            "test": self.test,
            "config": self.config,
            "provider": self.provider,
            "kind": self.kind,
            "payload": self.payload,
        }


@dataclass
class TaskOutcome:
    """Final fate of one task after retries and quarantine decisions."""

    index: int
    verdict: str  #: "PASS", "FAIL", "EXHAUSTED", CRASHED, or the flaky marker
    summary: dict | None = None  #: TestSummary dict of the decisive attempt
    verdicts: list[str] = field(default_factory=list)  #: all completed attempts
    retries: int = 0  #: crash-retry attempts consumed
    crash_report: str | None = None  #: artifact path when quarantined
    crashes: list[dict] = field(default_factory=list)

    @property
    def crashed(self) -> bool:
        return self.verdict == CRASHED


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs for one :class:`WorkerPool`."""

    workers: int = 2
    #: "fork" (workers start with the supervisor's imports) or "spawn" (a
    #: fresh interpreter).  Not a tuning knob — a pool asked to fork falls
    #: back to spawn by itself where forking would be unsafe or unfaithful,
    #: see :class:`_Worker` — but the seam tests and CI force "spawn" through.
    start_method: str = "fork" if hasattr(os, "fork") else "spawn"
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 15.0
    ready_timeout: float = 60.0  #: max seconds for a spawned worker to report in
    task_timeout: float | None = None  #: wall-clock cap per attempt
    max_retries: int = 2  #: crash retries before quarantine
    backoff_seconds: float = 0.1  #: first retry delay; doubles per retry
    backoff_cap: float = 5.0
    #: +/- fraction of jitter on each backoff delay, so shards of a swarm
    #: that crashed together don't retry in lockstep.  Drawn from a pool-
    #: owned PRNG seeded with ``jitter_seed``, so runs stay reproducible.
    backoff_jitter: float = 0.5
    jitter_seed: int = 0
    report_dir: str | None = None  #: crash reports + worker stderr files

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.start_method not in ("fork", "spawn"):
            raise ValueError(
                f"start_method must be 'fork' or 'spawn', "
                f"not {self.start_method!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")

    @classmethod
    def from_params(cls, params: dict) -> "PoolConfig":
        """The pool the isolation flags ask for (or a checkpoint's
        ``params`` / ``pool`` record of them)."""
        from repro.core.checkpoint import CheckpointError

        max_retries = params.get("max_retries")
        start_method = params.get("start_method") or cls.start_method
        if start_method not in ("fork", "spawn"):
            raise CheckpointError(
                f"checkpoint field 'start_method' is {start_method!r}, "
                "not 'fork' or 'spawn'"
            )
        return cls(
            workers=int(params.get("workers") or 2),
            start_method=start_method,
            limits=ResourceLimits(mem_limit_mb=params.get("mem_limit_mb")),
            max_retries=2 if max_retries is None else int(max_retries),
            report_dir=params.get("report_dir"),
        )


def open_pool(params: dict) -> "WorkerPool":
    """The one :class:`WorkerPool` of the commands (``campaign
    --isolate``, ``check --shards`` and their ``resume``), set
    up from the isolation flags or a checkpoint's record of them; the
    caller closes it."""
    return WorkerPool(PoolConfig.from_params(params))


def repro_command(spec: TaskSpec) -> str:
    """The minimal shell command reproducing a quarantined test."""
    from repro.core.checkpoint import test_from_dict

    test = test_from_dict(spec.test)

    def render_ops(ops) -> str:
        return "; ".join(
            f"{op.method}({', '.join(repr(a) for a in op.args)})"
            if op.args
            else op.method
            for op in ops
        )

    parts = [
        "python -m repro check",
        spec.class_name,
        f"--version {spec.version}",
        f'--test "{" | ".join(render_ops(col) for col in test.columns)}"',
    ]
    if test.init:
        parts.append(f'--init "{render_ops(test.init)}"')
    if test.final:
        parts.append(f'--final "{render_ops(test.final)}"')
    if spec.provider and spec.provider != sandbox.DEFAULT_PROVIDER:
        parts.append(f"--provider {spec.provider}")
    if spec.kind == "shard" and spec.swarm:
        # A swarm task only makes sense re-run as a swarm: keep the
        # sharding and isolation flags so the command is copy-pasteable.
        parts.append(f"--shards {spec.swarm.get('shards', 4)}")
        if spec.swarm.get("workers") is not None:
            parts.append(f"--workers {spec.swarm['workers']}")
        if spec.swarm.get("mem_limit_mb") is not None:
            parts.append(f"--mem-limit-mb {spec.swarm['mem_limit_mb']}")
        if spec.swarm.get("max_retries") is not None:
            parts.append(f"--max-retries {spec.swarm['max_retries']}")
    return " ".join(parts)


class _Worker:
    """One supervised child process (a single generation).

    Forked where the platform has ``fork``, so the worker begins with
    every module the supervisor imported — unless that would change what
    the worker is, in which case it is spawned: a forked child gets only
    the forking thread, so a lock some other thread of the caller held
    at that moment stays held in it forever; and ``RLIMIT_AS`` caps the
    whole address space, which in a forked child begins at its parent's
    size, so only a fresh interpreter makes ``mem_limit_mb`` mean the
    same whoever the caller is.  Hence the choice is made here, per
    start, from what can be observed, and not by the user.

    Raises ``OSError`` when the process cannot be started (``EAGAIN``
    under ``RLIMIT_NPROC``, ``ENOMEM``); both pipe ends are closed first.
    """

    _counter = 0

    def __init__(self, config: PoolConfig, report_dir: str) -> None:
        _Worker._counter += 1
        self.id = _Worker._counter
        forking = (
            config.start_method == "fork"
            and hasattr(os, "fork")
            and threading.active_count() == 1
            and config.limits.mem_limit_mb is None
        )
        ctx = multiprocessing.get_context("fork" if forking else "spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.stderr_path = os.path.join(report_dir, f"worker-{self.id}.stderr")
        self.process = ctx.Process(
            target=sandbox.worker_main,
            args=(
                child_conn,
                self.stderr_path,
                config.limits.to_dict(),
                config.heartbeat_interval,
                sandbox.open_descriptors() if forking else None,
            ),
            name=f"lineup-worker-{self.id}",
            daemon=True,
        )
        try:
            self.process.start()
        except OSError:
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self.spawned_at = time.monotonic()
        self.last_message = self.spawned_at
        self.last_heartbeat: dict | None = None
        self.ready = False
        self.start_method: str | None = None  #: from ``ready``: what it used
        self.rlimits: dict = {}
        self.task: int | None = None
        self.task_started: float | None = None
        self.completed_fails: list[int] = []  #: FAILs produced this generation
        self.dead = False

    def stderr_tail(self, limit: int = 4096) -> str:
        try:
            with open(self.stderr_path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - limit))
                return handle.read().decode("utf-8", "replace")
        except OSError:
            return ""

    def exit_info(self) -> dict:
        code = self.process.exitcode
        info: dict[str, Any] = {"exitcode": code}
        if code is not None and code < 0:
            try:
                info["signal"] = signal_module.Signals(-code).name
            except ValueError:  # pragma: no cover - unknown signal number
                info["signal"] = f"signal {-code}"
        return info

    def kill(self) -> None:
        try:
            self.process.kill()  # SIGKILL also fells SIGSTOPped processes
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.process.join(timeout=5.0)

    def close(self, graceful: bool) -> None:
        if graceful and self.process.is_alive():
            try:
                send_message(self.conn, {"type": "shutdown"})
                self.process.join(timeout=2.0)
            except ProtocolError:
                pass
        if self.process.is_alive():
            self.kill()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class _TaskState:
    """Supervision bookkeeping for one task across attempts."""

    def __init__(self, spec: TaskSpec, prior_retries: int = 0) -> None:
        self.spec = spec
        self.verdicts: list[str] = []
        self.summaries: list[dict] = []
        self.crashes: list[dict] = []
        self.retries = prior_retries
        self.not_before = 0.0  #: backoff gate for the next dispatch
        self.flaky_checked = False  #: a suspect-FAIL re-run was scheduled
        self.outcome: TaskOutcome | None = None


class WorkerPool:
    """Supervised pool of sandboxed workers; reusable across task batches."""

    #: Tasks run out of reach of the caller's ``control`` (it is polled
    #: between events only); see :class:`repro.exec.InlineExecutor`.
    inline = False

    def __init__(self, config: PoolConfig | None = None) -> None:
        self.config = config or PoolConfig()
        self._report_dir: str | None = None
        self._workers: list[_Worker] = []
        self._closed = False
        self._states: dict[int, _TaskState] = {}
        self._spawn_failures = 0
        #: graceful degradation: shrinks below config.workers when fresh
        #: workers repeatedly fail to come up but survivors still exist.
        self._worker_limit = self.config.workers
        self._backoff_rng = random.Random(self.config.jitter_seed)
        self._on_outcome: (
            Callable[[TaskOutcome, dict[int, int]], None] | None
        ) = None
        self._quarantine_extra: (
            Callable[[TaskSpec], dict | None] | None
        ) = None

    @property
    def report_dir(self) -> str:
        """Crash reports and worker stderr files, made on first use."""
        if self._report_dir is None:
            self._report_dir = self.config.report_dir or tempfile.mkdtemp(
                prefix="lineup-exec-"
            )
            os.makedirs(self._report_dir, exist_ok=True)
        return self._report_dir

    @property
    def kept_report_dir(self) -> str | None:
        """The report directory if it exists: made on first use, and once
        closed kept only when named by ``--report-dir`` or holding
        something to read."""
        path = self._report_dir
        return path if path is not None and os.path.isdir(path) else None

    @property
    def worker_limit(self) -> int:
        """Workers the pool will currently run (see graceful degradation)."""
        return self._worker_limit

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close(graceful=True)
        self._workers.clear()
        # A temporary directory of empty worker stderr files reports nothing.
        made = self._report_dir if self.config.report_dir is None else None
        if made and os.path.isdir(made) and all(
            name.startswith("worker-") and name.endswith(".stderr")
            and not os.path.getsize(os.path.join(made, name))
            for name in os.listdir(made)
        ):
            shutil.rmtree(made, ignore_errors=True)

    # -- the supervision loop ---------------------------------------------

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

        *prior_retries* restores crash-retry counters from a checkpoint so
        a resumed test does not get a fresh retry allowance; *control* is
        polled between events — on halt the unfinished tasks are simply
        not in the outcome list (a resume re-runs them); *on_outcome*
        fires on every finalized (or amended — see the flaky guard)
        outcome, in completion order, with the current retry-counter map
        (the campaign checkpoint hook persists both); *quarantine_extra*
        is called with the spec as a task is quarantined and may return
        extra keys to merge into the crash report (the swarm coordinator
        uses it to attach a resumable shard checkpoint).

        Outcomes are returned sorted by task index.
        """
        if self._closed:
            raise SupervisorError("pool is closed")
        states = {
            spec.index: _TaskState(
                spec, prior_retries=(prior_retries or {}).get(spec.index, 0)
            )
            for spec in tasks
        }
        if len(states) != len(tasks):
            raise SupervisorError("task indices must be unique")
        queue: deque[int] = deque(spec.index for spec in tasks)
        self._on_outcome = on_outcome
        self._quarantine_extra = quarantine_extra
        self._states = states
        self._spawn_failures = 0
        for worker in self._workers:
            worker.completed_fails.clear()
        if control is not None:
            control.start()
        stop_reason: str | None = None
        while any(state.outcome is None for state in states.values()):
            if control is not None:
                stop_reason = control.halt_reason()
                if stop_reason is not None:
                    break
            self._reap_workers(states, queue)
            self._dispatch(states, queue)
            self._drain_messages(states, queue)
        outcomes = sorted(
            (s.outcome for s in states.values() if s.outcome is not None),
            key=lambda outcome: outcome.index,
        )
        return outcomes, stop_reason

    def _retry_counters(self) -> dict[int, int]:
        """Nonzero crash-retry counters of the active batch (checkpoints)."""
        return {
            index: state.retries
            for index, state in self._states.items()
            if state.retries
        }

    # -- internals ---------------------------------------------------------

    def _alive_workers(self) -> list[_Worker]:
        return [w for w in self._workers if not w.dead]

    def _dispatch(self, states: dict[int, _TaskState], queue: deque[int]) -> None:
        """Assign queued tasks to idle ready workers; spawn up to N."""
        now = time.monotonic()
        runnable = [
            index
            for index in queue
            if states[index].not_before <= now and states[index].outcome is None
        ]
        if not runnable:
            return
        idle = [w for w in self._alive_workers() if w.ready and w.task is None]
        while len(self._alive_workers()) < min(self._worker_limit, len(runnable)):
            try:
                self._workers.append(_Worker(self.config, self.report_dir))
            except OSError:
                self._spawn_failed()
                break  # the supervision loop's next round tries again
        for worker in idle:
            if not runnable:
                break
            index = runnable.pop(0)
            queue.remove(index)
            spec = states[index].spec
            try:
                send_message(
                    worker.conn,
                    {"type": "task", "id": index, "spec": spec.to_message()},
                )
            except ProtocolError:
                worker.dead = True  # picked up by the next reap
                queue.appendleft(index)
                continue
            worker.task = index
            worker.task_started = time.monotonic()

    def _drain_messages(
        self, states: dict[int, _TaskState], queue: deque[int]
    ) -> None:
        conns = {w.conn: w for w in self._alive_workers()}
        if not conns:
            time.sleep(0.01)
            return
        try:
            readable = multiprocessing.connection.wait(
                list(conns), timeout=0.05
            )
        except OSError:  # pragma: no cover - racing a worker death
            readable = []
        for conn in readable:
            worker = conns[conn]
            while True:
                try:
                    if not conn.poll(0):
                        break
                    message = recv_message(conn)
                except (ProtocolError, OSError):
                    worker.dead = True  # EOF/torn frame: treated as death
                    break
                if message is None:  # pragma: no cover - poll said readable
                    break
                self._handle_message(worker, message, states, queue)

    def _handle_message(
        self,
        worker: _Worker,
        message: dict,
        states: dict[int, _TaskState],
        queue: deque[int],
    ) -> None:
        worker.last_message = time.monotonic()
        kind = message.get("type")
        if kind == "ready":
            worker.ready = True
            worker.start_method = message.get("start_method")
            worker.rlimits = message.get("rlimits", {})
            self._spawn_failures = 0
        elif kind == "heartbeat":
            worker.last_heartbeat = message
        elif kind == "result":
            index = message["id"]
            worker.task = None
            worker.task_started = None
            if index not in states:  # stale result from a previous batch
                return
            state = states[index]
            verdict = message.get("verdict", "PASS")
            summary = message.get("summary")
            state.verdicts.append(verdict)
            if summary is not None:
                state.summaries.append(summary)
            if verdict == "FAIL":
                worker.completed_fails.append(index)
            self._settle_verdict(state, queue)
        elif kind == "task-error":
            index = message["id"]
            worker.task = None
            worker.task_started = None
            if index not in states:
                return
            self._record_crash(
                states[index],
                queue,
                {
                    "reason": "task-error",
                    "error": message.get("error", ""),
                    "worker": worker.id,
                    "rlimits": worker.rlimits,
                    "start_method": worker.start_method,
                },
            )

    def _settle_verdict(self, state: _TaskState, queue: deque[int]) -> None:
        """Finalize (or escalate) a task that just completed an attempt."""
        verdicts = state.verdicts
        if len(verdicts) >= 2 and "FAIL" in verdicts and "PASS" in verdicts:
            if len(verdicts) == 2:
                # Disagreement: gather one more data point before judging.
                state.outcome = None
                queue.append(state.spec.index)
                return
            self._finalize(state, NONDETERMINISTIC_VERDICT)
            return
        self._finalize(state, verdicts[-1])

    def _finalize(
        self, state: _TaskState, verdict: str, crash_report: str | None = None
    ) -> None:
        decisive = state.summaries[-1] if state.summaries else None
        state.outcome = TaskOutcome(
            index=state.spec.index,
            verdict=verdict,
            summary=decisive,
            verdicts=list(state.verdicts),
            retries=state.retries,
            crash_report=crash_report,
            crashes=list(state.crashes),
        )
        if self._on_outcome is not None:
            # Fires on amendments too (a flaky re-check can replace an
            # earlier FAIL), so checkpoint hooks always see the latest.
            self._on_outcome(state.outcome, self._retry_counters())

    def _reap_workers(
        self, states: dict[int, _TaskState], queue: deque[int]
    ) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.dead or not worker.process.is_alive():
                # Drain any result that raced the death before judging.
                self._drain_corpse(worker, states, queue)
                self._handle_worker_death(
                    worker, states, queue, reason="worker-died"
                )
            elif not worker.ready and (
                now - worker.spawned_at > self.config.ready_timeout
            ):
                worker.kill()
                self._handle_worker_death(
                    worker, states, queue, reason="no-ready"
                )
            elif worker.task is not None and (
                now - worker.last_message > self.config.heartbeat_timeout
            ):
                worker.kill()
                self._handle_worker_death(
                    worker, states, queue, reason="heartbeat-loss"
                )
            elif (
                worker.task is not None
                and self.config.task_timeout is not None
                and worker.task_started is not None
                and now - worker.task_started > self.config.task_timeout
            ):
                worker.kill()
                self._handle_worker_death(
                    worker, states, queue, reason="task-timeout"
                )

    def _drain_corpse(
        self, worker: _Worker, states: dict[int, _TaskState], queue: deque[int]
    ) -> None:
        """A dead worker's pipe may still hold its final result; honour it."""
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = recv_message(worker.conn)
            except (ProtocolError, OSError):
                return
            if message is None:
                return
            self._handle_message(worker, message, states, queue)

    def _spawn_failed(self) -> None:
        """A worker could not be started, or died before reporting ready.

        That is an environment problem (no process slot or memory left,
        import failure, broken interpreter), not a hostile subject;
        respawning forever would spin. Tolerate a few — a subject killed
        during sandbox setup looks the same — then degrade gracefully
        onto the survivors, or give up if there are none.
        """
        self._spawn_failures += 1
        if self._spawn_failures > 3:
            survivors = [w for w in self._alive_workers() if w.ready]
            if survivors and len(survivors) < self._worker_limit:
                self._worker_limit = len(survivors)
                self._spawn_failures = 0
            else:
                raise SupervisorError(
                    "workers repeatedly failed to start or died before "
                    f"initializing (see stderr files in {self.report_dir})"
                )

    def _handle_worker_death(
        self,
        worker: _Worker,
        states: dict[int, _TaskState],
        queue: deque[int],
        reason: str,
    ) -> None:
        worker.dead = True
        self._workers.remove(worker)
        if not worker.ready:
            self._spawn_failed()
        # Reap before reading the exit code, else a just-died child still
        # reports exitcode None.
        worker.process.join(timeout=1.0)
        info = {
            "reason": reason,
            "worker": worker.id,
            **worker.exit_info(),
            "last_heartbeat": worker.last_heartbeat,
            "stderr_tail": worker.stderr_tail(),
            "rlimits": worker.rlimits,
            "start_method": worker.start_method,
        }
        worker.close(graceful=False)
        if worker.task is not None and worker.task in states:
            state = states[worker.task]
            if state.outcome is None:
                self._record_crash(state, queue, info)
        # The flaky-verdict guard: FAILs this worker produced are suspect
        # (a hostile subject may have corrupted the process before dying);
        # re-run each once on a fresh worker.
        for index in worker.completed_fails:
            state = states.get(index)
            if (
                state is not None
                and state.outcome is not None
                and state.outcome.verdict == "FAIL"
                and len(state.verdicts) == 1
                and not state.flaky_checked
            ):
                state.flaky_checked = True
                state.outcome = None
                queue.append(index)

    def _record_crash(
        self, state: _TaskState, queue: deque[int], info: dict
    ) -> None:
        state.crashes.append(info)
        state.retries += 1
        if state.retries > self.config.max_retries:
            if "FAIL" in state.verdicts:
                # A completed FAIL outlives later crashes: per Theorem 5 a
                # violation is a proof; the crash evidence rides along.
                self._finalize(state, "FAIL")
                return
            self._finalize(state, CRASHED, crash_report=self._quarantine(state))
            return
        delay = min(
            self.config.backoff_seconds * (2 ** (state.retries - 1)),
            self.config.backoff_cap,
        )
        if self.config.backoff_jitter:
            spread = self.config.backoff_jitter * (
                2.0 * self._backoff_rng.random() - 1.0
            )
            delay = min(delay * (1.0 + spread), self.config.backoff_cap)
        state.not_before = time.monotonic() + delay
        queue.appendleft(state.spec.index)

    def _quarantine(self, state: _TaskState) -> str:
        """Write the crash-report artifact; returns its path."""
        import json

        spec = state.spec
        path = os.path.join(
            self.report_dir,
            f"crash-{spec.class_name}-{spec.version}-t{spec.index}.json",
        )
        report = {
            "format": CRASH_REPORT_FORMAT,
            "version": CRASH_REPORT_VERSION,
            "class": spec.class_name,
            "subject_version": spec.version,
            "task_index": spec.index,
            "provider": spec.provider,
            "test": spec.test,
            "config": spec.config,
            "repro_command": repro_command(spec),
            "attempts": state.retries,
            "completed_verdicts": list(state.verdicts),
            "crashes": state.crashes,
            "quarantined_at": time.time(),
        }
        dump_dir = (spec.config or {}).get("dump_traces")
        if dump_dir:
            # The worker was dumping judged histories; their directory is
            # a deterministic function of (subject, test), so the report
            # can reference it without a round-trip to the (dead) worker.
            # Re-check offline with: lineup monitor DIR/*.trace.jsonl
            # --model NAME.
            from repro.monitor.trace import default_trace_dir

            report["trace_dir"] = default_trace_dir(
                dump_dir, f"{spec.class_name}({spec.version})", spec.test
            )
        if self._quarantine_extra is not None:
            extra = self._quarantine_extra(spec)
            if extra:
                report.update(extra)
        atomic_write_text(path, json.dumps(report, indent=2, default=repr))
        return path
