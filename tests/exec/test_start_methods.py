"""One table over the pool's two start methods, ``fork`` and ``spawn``.

The fixtures of the isolation suites follow the pool's default, which is
``fork`` wherever the platform has it; this file is what keeps ``spawn``
— the only method elsewhere, and what a forking pool falls back to when
its caller has threads — covered in tier-1, and what pins that the two
are indistinguishable from the supervisor's side: same verdicts, same
:class:`TaskOutcome` fields, same crash-report keys, same campaign table.

It also holds the rows for what only a *forked* worker can get wrong,
each failing without its line in ``sandbox._drop_inherited``:

* inherited descriptors — the orphan test (a SIGKILLed supervisor's
  workers must see EOF and go);
* inherited signal handlers — the SIGTERM test;
* inherited ``sys.stderr`` — the ``CrashingRegister`` row of the batch
  (under pytest's capture its ``sys.stderr.write`` raised on a closed
  descriptor, the harness made a response of the exception, and the
  test read PASS where it must read CRASHED).

After every test no ``lineup-worker-*`` process may be left alive.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main, parse_test
from repro.core.checker import CheckConfig
from repro.core import checkpoint
from repro.exec import (
    PoolConfig,
    ResourceLimits,
    SupervisorError,
    TaskSpec,
    WorkerPool,
)
from repro.exec.protocol import ProtocolError, recv_message

from tests.exec.conftest import make_spec

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

METHODS = [
    pytest.param(
        "fork",
        marks=pytest.mark.skipif(
            not hasattr(os, "fork"), reason="platform has no fork"
        ),
    ),
    "spawn",
]

#: Keys of a quarantine artifact and of one entry of its ``crashes``.
REPORT_KEYS = {
    "format", "version", "class", "subject_version", "task_index",
    "provider", "test", "config", "repro_command", "attempts",
    "completed_verdicts", "crashes", "quarantined_at",
}
DEATH_KEYS = {
    "reason", "worker", "exitcode", "last_heartbeat", "stderr_tail",
    "rlimits", "start_method",
}


def _worker_processes() -> list[str]:
    return [
        process.name
        for process in multiprocessing.active_children()
        if process.name.startswith("lineup-worker-")
    ]


def _gone(pid: int) -> bool:
    """No such process, or only its zombie (nobody has to reap an orphan)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        if os.path.exists("/proc/self/stat"):
            return True
    try:  # no /proc on this platform
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    assert _worker_processes() == []
    yield
    assert _worker_processes() == []


@pytest.fixture(autouse=True)
def really_single_threaded(single_threaded):
    """A forking pool spawns instead while its caller has other threads;
    a thread leaked by an earlier test would make every ``fork`` row here
    quietly test ``spawn``.  (A sleeper some watchdog test abandoned ends
    by itself; give it a moment.)"""
    deadline = time.monotonic() + 10.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() == 1, threading.enumerate()


def _started_by(pool: WorkerPool) -> set:
    return {worker.start_method for worker in pool._workers}


class TestSameBatch:
    """PASS / FAIL / crash → retry → quarantine / heartbeat loss / task
    timeout: the supervisor cannot tell how its workers were started."""

    @pytest.mark.parametrize("method", METHODS)
    def test_verdicts_and_outcome_fields(self, pool_config, method):
        specs = [
            make_spec(0, "GoodRegister", [["Get"], ["Get"]]),
            make_spec(1, "CrashingRegister", [["Boom"]]),
            make_spec(2, "FreezingRegister", [["Freeze"]]),
            # Last, so that its worker never dies afterwards and the
            # flaky-verdict guard has nothing to re-run.  With no backoff a
            # retry goes first, so nothing overtakes the freezer's second
            # attempt (that ordering is pinned in test_supervisor.py).
            make_spec(3, "NondetRegister", [["Get"], ["Get"]]),
        ]
        config = pool_config(
            workers=1, start_method=method, max_retries=1,
            heartbeat_timeout=1.0, backoff_seconds=0.0,
        )
        with WorkerPool(config) as pool:
            outcomes, stop = pool.run(specs)
            assert _started_by(pool) == {method}
        assert stop is None
        good, crashing, freezing, nondet = outcomes
        table = [
            (o.index, o.verdict, o.verdicts, o.retries,
             [c["reason"] for c in o.crashes], o.summary is None,
             o.crash_report is None)
            for o in outcomes
        ]
        assert table == [
            (0, "PASS", ["PASS"], 0, [], False, True),
            (1, "CRASHED", [], 2, ["worker-died"] * 2, True, False),
            (2, "CRASHED", [], 2, ["heartbeat-loss"] * 2, True, False),
            (3, "FAIL", ["FAIL"], 0, [], False, True),
        ]
        assert [c["exitcode"] for c in crashing.crashes] == [3, 3]
        assert [c["signal"] for c in freezing.crashes] == ["SIGKILL"] * 2
        # The subject's dying words went to descriptor 2, the worker's
        # stderr file — through whatever sys.stderr the worker has.
        assert "os._exit(3)" in crashing.crashes[0]["stderr_tail"]
        for outcome in (crashing, freezing):
            with open(outcome.crash_report) as handle:
                report = json.load(handle)
            assert set(report) == REPORT_KEYS
            for death in report["crashes"]:
                assert DEATH_KEYS <= set(death) <= DEATH_KEYS | {"signal"}
                assert death["start_method"] == method

    @pytest.mark.parametrize("method", METHODS)
    def test_task_timeout(self, pool_config, method):
        config = pool_config(
            workers=1, start_method=method, max_retries=0, task_timeout=0.5,
        )
        with WorkerPool(config) as pool:
            (outcome,), _ = pool.run(
                [make_spec(0, "FreezingRegister", [["Freeze"]])]
            )
        assert outcome.verdict == "CRASHED"
        assert [c["reason"] for c in outcome.crashes] == ["task-timeout"]
        assert outcome.crashes[0]["start_method"] == method


class TestCampaignTable:
    """The CI ``campaign-parity`` row, locally: ``--isolate`` picks an
    executor and ``--start-method`` how its workers start — neither may
    show in the table."""

    COLUMNS = "6.0 6 2 2 0 124 0"

    @staticmethod
    def _campaign(*extra: str) -> str:
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign", "Lazy",
                "--versions", "pre", "--samples", "4", "--rows", "2",
                "--cols", "2", "--schedules", "60", "--seed", "5", *extra,
            ],
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stdout + done.stderr  # Lazy pre FAILs
        (row,) = [
            line.split() for line in done.stdout.splitlines()
            if line.split()[:1] == ["Lazy"]
        ]
        # hist avg, hist max, fail, pass, crash, sched, pruned
        return " ".join(row[i] for i in (4, 5, 7, 8, 9, 12, 13))

    def test_inline(self):
        assert self._campaign() == self.COLUMNS

    @pytest.mark.parametrize("method", METHODS)
    def test_isolated(self, method, tmp_path):
        assert self._campaign(
            "--isolate", "--workers", "1", "--start-method", method,
            "--report-dir", str(tmp_path),
        ) == self.COLUMNS


class TestSupervisorDeath:
    @pytest.mark.parametrize("method", METHODS)
    def test_workers_do_not_outlive_a_killed_supervisor(self, method, tmp_path):
        """A forked worker holds a copy of the supervisor's end of every
        pipe made before it, its own included; unless it closes them a
        SIGKILLed supervisor's pipes never read EOF and its workers wait
        forever."""
        host = subprocess.Popen(
            [
                sys.executable, os.path.join(REPO, "tests", "exec", "orphan_host.py"),
                method, str(tmp_path),
            ],
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            stdout=subprocess.PIPE, text=True,
        )
        pids: list[int] = []
        try:
            line = host.stdout.readline()
            assert line, "the pool host died before reporting"
            report = json.loads(line)
            pids = report["pids"]
            assert report["verdicts"] == ["PASS", "PASS"]
            assert report["methods"] == [method, method]
            assert len(pids) == 2 and not any(_gone(pid) for pid in pids)
            host.kill()
            host.wait(timeout=10)
            # The workers sit in recv_message(); EOF is immediate.  The
            # allowance is for a loaded machine, not for a heartbeat.
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline and not all(map(_gone, pids)):
                time.sleep(0.02)
            assert [pid for pid in pids if not _gone(pid)] == []
        finally:
            host.kill()
            host.wait(timeout=10)
            host.stdout.close()
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_dead_worker_reads_eof(self, pool_config, method):
        """The other direction: no sibling holds a worker's own end, so
        its death shows as EOF on its pipe at once — death is not only
        noticed by ``is_alive`` or, much later, by heartbeat loss."""
        config = pool_config(workers=2, start_method=method)
        tasks = [make_spec(i, "GoodRegister", [["Get"]]) for i in range(2)]
        with WorkerPool(config) as pool:
            pool.run(tasks)
            while not all(worker.ready for worker in pool._workers):
                pool.run(tasks)
            victim, sibling = pool._workers
            os.kill(victim.process.pid, signal.SIGKILL)
            assert multiprocessing.connection.wait([victim.conn], timeout=5.0)
            with pytest.raises(ProtocolError, match="closed by peer"):
                while True:  # heartbeats sent before the kill come first
                    recv_message(victim.conn)
            assert sibling.process.is_alive()
            outcomes, _ = pool.run(tasks)  # and the pool carries on
            assert [o.verdict for o in outcomes] == ["PASS", "PASS"]


class _SignalBusyWorker:
    """Stands in for an ``ExplorationControl`` (polled once per
    supervision round): signals the first worker seen mid-task, once."""

    def __init__(self, pool: WorkerPool, signum: int) -> None:
        self.pool = pool
        self.signum = signum
        self.signalled: list[int] = []

    def start(self) -> None:
        pass

    def halt_reason(self) -> None:
        if not self.signalled:
            for worker in self.pool._workers:
                if worker.task is not None and worker.process.is_alive():
                    os.kill(worker.process.pid, self.signum)
                    self.signalled.append(worker.process.pid)
                    break
        return None


class TestSignals:
    @pytest.mark.parametrize("method", METHODS)
    def test_sigterm_ends_a_busy_worker_and_the_task_is_retried(
        self, pool_config, method
    ):
        """The CLI installs its graceful-stop handlers before the pool
        exists.  A forked worker that kept them would answer SIGTERM by
        setting a flag nobody reads, and finish its task."""
        spec = TaskSpec(
            0, "ConcurrentQueue", "beta",
            checkpoint.test_to_dict(
                parse_test("Enqueue(10); TryDequeue | Enqueue(20); TryDequeue")
            ),
            checkpoint.config_to_dict(CheckConfig()),  # ~600 schedules: 0.2 s busy
        )
        flags: list[int] = []
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: flags.append(signum)
        )
        try:
            with WorkerPool(pool_config(workers=1, start_method=method)) as pool:
                assassin = _SignalBusyWorker(pool, signal.SIGTERM)
                (outcome,), _ = pool.run([spec], control=assassin)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert assassin.signalled and not flags
        assert outcome.verdict == "PASS"
        assert outcome.retries == 1
        (death,) = outcome.crashes
        assert death["reason"] == "worker-died"
        assert death["signal"] == "SIGTERM"
        assert death["start_method"] == method


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork")
class TestForkGuard:
    def test_a_threaded_caller_gets_spawned_workers_and_is_told(
        self, pool_config
    ):
        """A forked child has only the forking thread: a lock another
        thread held stays held in it forever.  So the pool looks, per
        worker start, and says in ``ready`` what it did."""
        tasks = [make_spec(i, "GoodRegister", [["Get"]]) for i in range(2)]
        release = threading.Event()
        bystander = threading.Thread(target=release.wait)
        bystander.start()
        try:
            with WorkerPool(pool_config(workers=2, start_method="fork")) as pool:
                pool.run(tasks[:1])  # one task: one worker
                assert [w.start_method for w in pool._workers] == ["spawn"]
                release.set()
                bystander.join(timeout=10)
                assert not bystander.is_alive()
                pool.run(tasks)  # two tasks: the second worker starts
                while not all(worker.ready for worker in pool._workers):
                    pool.run(tasks)
                assert [w.start_method for w in pool._workers] == [
                    "spawn", "fork",
                ]
                assert pool.config.start_method == "fork"  # what was asked
        finally:
            release.set()
            bystander.join(timeout=10)


    def test_an_address_space_cap_gets_a_fresh_interpreter(self, pool_config):
        """RLIMIT_AS counts what a forked worker inherited: under a caller
        already larger than the cap no forked worker could even start."""
        config = pool_config(
            workers=1, start_method="fork",
            limits=ResourceLimits(mem_limit_mb=512),
        )
        with WorkerPool(config) as pool:
            (outcome,), _ = pool.run([make_spec(0, "GoodRegister", [["Get"]])])
            (worker,) = pool._workers
            assert worker.start_method == "spawn"
            assert worker.rlimits["rlimit_as"] == 512 * 1024 * 1024
        assert outcome.verdict == "PASS"


class _FailingStarts:
    """``multiprocessing.get_context`` whose processes fail to start while
    *errors* lasts; keeps every pipe it hands out."""

    def __init__(self, errors: list[OSError]) -> None:
        self.errors = errors
        self.pipes: list = []
        self._get_context = multiprocessing.get_context

    def __call__(self, method: str):
        outer, ctx = self, self._get_context(method)

        class Context:
            @staticmethod
            def Pipe(duplex: bool = True):
                ends = ctx.Pipe(duplex=duplex)
                outer.pipes.append(ends)
                return ends

            @staticmethod
            def Process(**kwargs):
                process = ctx.Process(**kwargs)
                if outer.errors:
                    def start() -> None:
                        raise outer.errors.pop(0)

                    process.start = start
                return process

        return Context


class TestFailedStart:
    @pytest.mark.parametrize("method", METHODS)
    def test_a_few_failed_starts_are_tolerated(
        self, pool_config, monkeypatch, method
    ):
        starts = _FailingStarts([
            OSError(errno.EAGAIN, "Resource temporarily unavailable"),
            OSError(errno.ENOMEM, "Cannot allocate memory"),
        ])
        monkeypatch.setattr(multiprocessing, "get_context", starts)
        with WorkerPool(pool_config(workers=1, start_method=method)) as pool:
            (outcome,), stop = pool.run([make_spec(0, "GoodRegister", [["Get"]])])
            assert _started_by(pool) == {method}
        assert (outcome.verdict, outcome.retries, stop) == ("PASS", 0, None)
        assert not starts.errors and len(starts.pipes) == 3
        for parent_end, child_end in starts.pipes[:2]:
            assert parent_end.closed and child_end.closed  # nothing leaked

    def test_persistent_failure_is_a_supervisor_error(
        self, pool_config, monkeypatch
    ):
        """Not a raw OSError: callers map SupervisorError to an exit code."""
        starts = _FailingStarts(
            [OSError(errno.EAGAIN, "Resource temporarily unavailable")] * 10
        )
        monkeypatch.setattr(multiprocessing, "get_context", starts)
        config = pool_config(workers=2)
        with WorkerPool(config) as pool:
            with pytest.raises(SupervisorError, match="failed to start") as info:
                pool.run([make_spec(0, "GoodRegister", [["Get"]])])
        assert config.report_dir in str(info.value)
        assert all(a.closed and b.closed for a, b in starts.pipes)


class TestRetiredForkserver:
    def test_the_default_is_fork_where_there_is_one(self):
        assert PoolConfig().start_method == (
            "fork" if hasattr(os, "fork") else "spawn"
        )

    def test_an_old_checkpoint_resumes_on_the_default(self):
        """``PoolConfig.from_params`` reads campaign params and a swarm
        checkpoint's ``pool`` alike; one that names no method runs on the default."""
        default = PoolConfig().start_method
        method = lambda params: PoolConfig.from_params(params).start_method  # noqa: E731
        assert method({"start_method": None}) == default
        assert method({}) == default
        assert method({"start_method": "spawn"}) == "spawn"

    def test_an_unknown_start_method_is_a_checkpoint_error(
        self, tmp_path, capsys
    ):
        """``forkserver`` is retired: a checkpoint naming it is refused by
        field name (exit 64), not quietly run on another method."""
        with pytest.raises(checkpoint.CheckpointError, match="'start_method'"):
            PoolConfig.from_params({"start_method": "forkserver"})
        path = str(tmp_path / "campaign.json")
        checkpoint.save_checkpoint(path, {
            "kind": "campaign",
            "plan": [["Lazy", "beta"]],
            "params": {"samples": 1, "rows": 1, "cols": 1, "schedules": 10,
                       "seed": 0, "isolate": True, "workers": 1,
                       "start_method": "forkserver"},
            "finished_rows": [],
        })
        assert main(["resume", path]) == 64
        assert "'start_method'" in capsys.readouterr().err
