"""How the benchmark starts a process and what it measures of it."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

from gen_traces import SRC

CHILD_TIMEOUT_S = 150.0


def child_env(tmpdir: str) -> dict:
    """The whole environment of a CLI run — nothing is inherited but PATH.

    ``PYTHONDONTWRITEBYTECODE`` stays unset so the ``.pyc`` files of the
    warm-up are reused; ``TMPDIR`` keeps the tool's own temporary
    directories (worker report dirs) inside the run's directory.
    """
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "TMPDIR": tmpdir,
        "LC_ALL": "C.UTF-8",
    }


@contextlib.contextmanager
def one_cpu(enabled: bool = True):
    """Pin this thread — and what it starts meanwhile — to one CPU.

    The baton engine hands a baton between OS threads.  Left alone, the
    kernel keeps those threads on one CPU for minutes, then spreads them
    over two for minutes (cross-CPU wake-ups: the same check takes 12 s or
    21 s, user time included).  Pinned, it is the one-CPU figure every
    time.  Only ``check_sharded`` — two workers on two cores — runs free.
    """
    if not enabled or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


#: What :func:`spin` takes on the box the baseline was recorded on, in a
#: quiet phase.  Times are reported as if the host ran at this speed.
SPIN_REFERENCE_S = 0.070


def spin() -> float:
    """Seconds a fixed piece of interpreter work takes right now, on the pinned CPU.

    The host has phases of minutes in which everything runs 10–40 % slower.
    The same spin before and after a run tells how slow the host was
    around it: ``mean(before, after) / SPIN_REFERENCE_S`` is the run's
    *host slowdown*, and the run's times are divided by it.
    """
    with one_cpu():
        started = time.perf_counter()
        table = {}
        total = 0
        for i in range(260_000):
            table[i & 4095] = (i * 7) ^ (i >> 3)
            total += len(str(i))
        # Small pieces: this process must stay smaller than the ones it
        # measures, or a child's ``ru_maxrss`` reads this one's at the fork.
        for _ in range(30):
            json.loads("[" + ",".join(str(i) for i in range(2_000)) + "]")
        return time.perf_counter() - started


def become_subreaper() -> bool:
    """Have orphaned descendants re-parented to this process, not to init.

    A worker pool's helpers (``multiprocessing``'s resource tracker) end
    only after the process that started them has; as a subreaper the
    benchmark can still wait for them (Linux ``PR_SET_CHILD_SUBREAPER``).
    """
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def run_to_end(argv: list, *, cwd: str, env: dict, stdout, stderr,
               pinned: bool, timeout_s: float = CHILD_TIMEOUT_S) -> tuple:
    """Popen → exit code of one process in a session of its own.

    Returns (exit code, wall seconds, rusage).  Nothing the process
    started is alive, or unwaited, when this returns.
    """
    started = time.perf_counter()
    with one_cpu(pinned):  # the child inherits the affinity at fork
        proc = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
            cwd=cwd, env=env, start_new_session=True,
        )
    watchdog = threading.Timer(timeout_s, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        # wait4 gives the rusage of this child plus every descendant
        # it reaped (the workers of a sharded check).
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    end_group(proc.pid)
    return proc.returncode, wall, usage


def run_cli(argv: tuple, rundir: str, tag: str, pinned: bool = True) -> dict:
    """One ``python -m repro`` process: Popen → exit code, with its rusage."""
    out_path = os.path.join(rundir, f"{tag}.out")
    err_path = os.path.join(rundir, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        exit_code, wall, usage = run_to_end(
            [sys.executable, "-m", "repro", *argv], cwd=rundir,
            env=child_env(rundir), stdout=out, stderr=err, pinned=pinned,
        )
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return {
        "exit_code": exit_code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr,
    }


def _kill_group(pgid: int) -> bool:
    """SIGKILL the process group; False once it has no member left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def reap_children() -> None:
    """Wait for every child of this process, orphans it inherited included."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def end_group(pgid: int, patience_s: float = 5.0) -> None:
    """No straggler outlives its run: kill the leader's group, wait for all.

    The benchmark has one child at a time, so whatever is left to wait for
    belonged to the run that just ended.  Where the subreaper call is not
    available the stragglers are init's to reap; the group is polled
    until it is empty (a killed process nobody reaps stays in it: after
    *patience_s* that is said and left).
    """
    deadline = time.monotonic() + patience_s
    while _kill_group(pgid):
        reap_children()
        if time.monotonic() > deadline:
            print(f"perfbench: killed process group {pgid} is not reaped yet",
                  file=sys.stderr)
            break
        time.sleep(0.002)
    reap_children()
