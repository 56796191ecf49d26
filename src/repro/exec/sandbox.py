"""The worker side of process isolation: sandbox, heartbeats, check loop.

A worker is a child process (forked from the supervisor where ``fork``
exists, else spawned) whose entire job is to run two-phase checks it is
handed over the pipe, inside a sandbox the subject cannot escape without
killing the *worker* — which the supervisor survives:

* ``resource.setrlimit`` caps on address space (``RLIMIT_AS``, so an
  unboundedly-allocating subject gets ``MemoryError`` or dies alone) and
  CPU time (``RLIMIT_CPU``, so a spin that defeats the in-process
  watchdog gets ``SIGXCPU``), plus an optional ``nice`` level so a
  saturated pool does not starve the supervisor;
* stderr redirected to a per-worker file, so the tail of whatever the
  subject printed while dying ends up in the crash report;
* a daemon heartbeat thread, so the supervisor can tell a wedged process
  (stopped, thrashing, stuck in an uninterruptible syscall) from a slow
  one.

Subjects are resolved by *name* through a provider module (default: the
paper's Table 1 registry) because factories are closures and cannot
cross a spawn boundary; the provider must expose ``get_class(name)``.

A forked worker starts with everything its supervisor had: the imported
modules, which is the point, and what :func:`_drop_inherited` takes away.
"""

from __future__ import annotations

import importlib
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any

try:  # POSIX only; on other platforms limits become no-ops.
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

from repro.exec.protocol import ProtocolError, recv_message, send_message

__all__ = ["ResourceLimits", "apply_limits", "worker_main"]

#: Default provider module; must expose ``get_class(name)``.
DEFAULT_PROVIDER = "repro.structures"


@dataclass(frozen=True)
class ResourceLimits:
    """Per-worker sandbox caps (all optional, None = unlimited)."""

    mem_limit_mb: int | None = None  #: RLIMIT_AS, in MiB
    cpu_seconds: int | None = None  #: RLIMIT_CPU, in seconds
    nice: int | None = None  #: increment passed to ``os.nice``

    def to_dict(self) -> dict:
        return {
            "mem_limit_mb": self.mem_limit_mb,
            "cpu_seconds": self.cpu_seconds,
            "nice": self.nice,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResourceLimits":
        return cls(
            mem_limit_mb=data.get("mem_limit_mb"),
            cpu_seconds=data.get("cpu_seconds"),
            nice=data.get("nice"),
        )


def apply_limits(limits: ResourceLimits) -> dict:
    """Apply *limits* to the calling process; return the applied snapshot.

    The snapshot (recorded in the worker's ``ready`` message and in crash
    reports) says what was actually enforced — on platforms without the
    :mod:`resource` module it records that nothing was.
    """
    snapshot: dict[str, Any] = {"applied": resource is not None}
    if resource is None:  # pragma: no cover - non-POSIX
        return snapshot
    if limits.mem_limit_mb is not None:
        soft = limits.mem_limit_mb * 1024 * 1024
        try:
            resource.setrlimit(resource.RLIMIT_AS, (soft, soft))
            snapshot["rlimit_as"] = soft
        except (ValueError, OSError) as exc:  # pragma: no cover - platform
            snapshot["rlimit_as_error"] = str(exc)
    if limits.cpu_seconds is not None:
        try:
            resource.setrlimit(
                resource.RLIMIT_CPU, (limits.cpu_seconds, limits.cpu_seconds + 5)
            )
            snapshot["rlimit_cpu"] = limits.cpu_seconds
        except (ValueError, OSError) as exc:  # pragma: no cover - platform
            snapshot["rlimit_cpu_error"] = str(exc)
    if limits.nice is not None:
        try:
            snapshot["nice"] = os.nice(limits.nice)
        except OSError as exc:  # pragma: no cover - platform
            snapshot["nice_error"] = str(exc)
    return snapshot


def _resolve_subject(spec: dict):
    """Build (SystemUnderTest, FiniteTest, CheckConfig) from a task spec."""
    from repro.core.checkpoint import config_from_dict, test_from_dict
    from repro.core.harness import SystemUnderTest

    provider = importlib.import_module(spec.get("provider") or DEFAULT_PROVIDER)
    entry = provider.get_class(spec["class_name"])
    version = spec["version"]
    subject = SystemUnderTest(
        entry.factory(version), f"{entry.name}({version})"
    )
    test = test_from_dict(spec["test"])
    config = config_from_dict(spec.get("config") or {})
    return subject, test, config


def _run_task(spec: dict, *, scheduler=None, control=None) -> dict:
    """Run one task; dispatch on the spec's ``kind``.

    ``"check"`` (the default) runs a full two-phase check; ``"probe"``
    and ``"shard"`` are the swarm task kinds (partition probing and
    lease execution — see :mod:`repro.swarm.worker`); ``"stream"`` runs
    one shard of a streaming watch (see :mod:`repro.stream.worker`);
    ``"generate"`` checks one generation candidate and harvests its
    coverage fingerprints (see :mod:`repro.generate.worker`).

    A worker passes neither keyword.  :class:`repro.exec.InlineExecutor`
    runs the two check kinds in the caller's process on a *scheduler* it
    keeps alive between tasks and under the caller's *control*, so a
    budget trip or an interrupt stops the check mid-task.
    """
    kind = spec.get("kind") or "check"
    if kind == "probe":
        from repro.swarm.worker import run_probe_task

        return run_probe_task(spec)
    if kind == "shard":
        from repro.swarm.worker import run_shard_task

        return run_shard_task(spec)
    if kind == "stream":
        from repro.stream.worker import run_stream_task

        return run_stream_task(spec)
    if kind == "generate":
        from repro.generate.worker import run_generate_task

        return run_generate_task(spec, scheduler=scheduler, control=control)

    from repro.core.campaign import TestSummary
    from repro.core.checker import check

    subject, test, config = _resolve_subject(spec)
    result = check(subject, test, config, scheduler, control=control)
    summary = TestSummary.from_result(result)
    return {
        "verdict": result.verdict,
        "summary": summary.to_dict(),
        "violations": [v.kind for v in result.violations],
    }


class _Heartbeat:
    """Background thread pulsing ``heartbeat`` messages to the supervisor.

    The worker's main thread may be deep inside a hostile subject, so the
    pulse runs on its own daemon thread; a shared ``state`` dict carries
    the task currently being executed.  Sends share a lock with the main
    thread so result frames and heartbeat frames never interleave.
    """

    def __init__(self, conn: Any, lock: threading.Lock, interval: float) -> None:
        self._conn = conn
        self._lock = lock
        self._interval = interval
        self._stop = threading.Event()
        self.state: dict[str, Any] = {"task": None, "started": None}
        self._thread = threading.Thread(
            target=self._pulse, name="lineup-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _pulse(self) -> None:
        seq = 0
        while not self._stop.wait(self._interval):
            seq += 1
            task = self.state.get("task")
            started = self.state.get("started")
            message = {
                "type": "heartbeat",
                "seq": seq,
                "task": task,
                "elapsed": (
                    time.monotonic() - started if started is not None else None
                ),
            }
            try:
                with self._lock:
                    send_message(self._conn, message)
            except ProtocolError:
                return  # supervisor is gone; the worker will notice too


def open_descriptors() -> list[int]:
    """The calling process's open descriptors above stdio.

    The supervisor takes this snapshot just before it forks a worker: it
    is exactly what the worker inherits and must not keep.  What
    ``multiprocessing`` opens for the child during the fork itself (the
    sentinel pipe ``Process.join`` waits on) is not in it, and stays.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:  # pragma: no cover - no descriptor directory to read
        return []
    found = []
    for fd in map(int, names):
        if fd > 2:
            try:
                os.fstat(fd)
            except OSError:
                continue  # the listing's own descriptor, closed by now
            found.append(fd)
    return found


def _drop_inherited(conn: Any, inherited_fds: list[int]) -> None:
    """What a forked worker must not keep of its supervisor.

    Under ``spawn`` none of this applies: the child is a fresh
    interpreter, and the only descriptors it holds are its pipe end and
    ``multiprocessing``'s own.

    * Every descriptor the supervisor had open, bar this worker's pipe
      end.  Among them are the supervisor's ends of *every* pipe made so
      far, this worker's included; while a worker holds one, a pipe whose
      supervisor was SIGKILLed never reads EOF and "supervisor died; exit
      with it" in :func:`worker_main` stops being true.
    * Python-level SIGINT / SIGTERM handlers.  The CLI installs its
      graceful-stop handlers before the pool exists; a worker keeping
      them would answer a terminal's Ctrl-C (sent to the whole process
      group) by setting a flag nobody reads.  As across ``exec``, an
      *ignored* signal stays ignored.
    * ``sys.stdout`` / ``sys.stderr``.  The inherited objects may write
      elsewhere than descriptors 1 and 2 (pytest capture, a host that
      replaced them) — into a descriptor closed above.
    """
    for fd in inherited_fds:
        if fd != conn.fileno():
            try:
                os.close(fd)
            except OSError:
                pass
    for signum, default in (
        (signal.SIGINT, signal.default_int_handler),
        (signal.SIGTERM, signal.SIG_DFL),
    ):
        if callable(signal.getsignal(signum)):
            signal.signal(signum, default)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(
        2, "w", buffering=1, closefd=False, errors="backslashreplace"
    )


def worker_main(
    conn: Any,
    stderr_path: str,
    limits_data: dict,
    heartbeat_interval: float,
    inherited_fds: list[int] | None = None,
) -> None:
    """Entry point of a sandboxed worker process.

    Protocol: apply limits → send ``ready`` → loop on ``task`` messages
    until ``shutdown`` (or the pipe dies, which means the supervisor is
    gone and the worker must not outlive it).  *inherited_fds* is the
    supervisor's :func:`open_descriptors` snapshot when this worker was
    forked from it, and ``None`` when it was spawned.
    """
    if inherited_fds is not None:
        _drop_inherited(conn, inherited_fds)
    try:
        stderr_fd = os.open(
            stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )
        os.dup2(stderr_fd, 2)
        os.close(stderr_fd)
    except OSError:  # pragma: no cover - sandbox degradation, not fatal
        pass
    snapshot = apply_limits(ResourceLimits.from_dict(limits_data))
    lock = threading.Lock()
    heartbeat = _Heartbeat(conn, lock, heartbeat_interval)
    heartbeat.start()
    try:
        with lock:
            send_message(
                conn,
                {
                    "type": "ready",
                    "pid": os.getpid(),
                    "rlimits": snapshot,
                    "start_method": "spawn" if inherited_fds is None else "fork",
                },
            )
        while True:
            try:
                message = recv_message(conn)
            except ProtocolError:
                return  # supervisor died; exit with it
            if message is None or message["type"] == "shutdown":
                return
            if message["type"] != "task":
                continue  # unknown directives are ignored, not fatal
            task_id = message["id"]
            heartbeat.state["task"] = task_id
            heartbeat.state["started"] = time.monotonic()
            try:
                payload = _run_task(message["spec"])
                reply = {"type": "result", "id": task_id, **payload}
            except BaseException:
                # An internal error of the check itself (the subject's
                # own exceptions become responses inside the harness).
                reply = {
                    "type": "task-error",
                    "id": task_id,
                    "error": traceback.format_exc(limit=20),
                }
            heartbeat.state["task"] = None
            heartbeat.state["started"] = None
            try:
                with lock:
                    send_message(conn, reply)
            except ProtocolError:
                return
    finally:
        heartbeat.stop()
