"""The in-repo reference SUT: a tiny threaded HTTP service.

Live-service checking needs something to check, and it has to run
hermetically — no external Redis, no Docker.  This module is that
service: a stdlib-only ``ThreadingHTTPServer`` exposing a counter, a
FIFO queue, and a register whose alphabets match the sequential models
of :mod:`repro.monitor.models`, in two variants:

* ``correct`` — every operation runs under one lock; the service is
  linearizable by construction.
* ``buggy`` — the counter's ``inc`` and the queue's ``Enqueue`` /
  ``TryDequeue`` perform a read-modify-write *outside* the lock with a
  deliberate sleep inside the race window, seeding classic lost-update
  and duplicate-dequeue bugs that concurrent clients hit reliably.

The wire protocol is one request per operation::

    POST /op/<Method>?a=<urlencoded repr of the args tuple>

with ``200`` + ``repr(value)`` for a normal return (parsed back with
``ast.literal_eval``, the repo-wide round-trip), ``400`` + an error name
for an invocation the service cannot interpret, and ``GET /healthz``
for liveness probes.

It runs as a child process (:func:`start_refsut_process` / ``python -m
repro.live.refsut``), which is what the chaos SUT-kill mode and the CLI
use — killing a process is the only honest way to simulate a service
dying mid-campaign.  The live tests also run it in-process, on a server
thread.
"""

from __future__ import annotations

import ast
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

__all__ = [
    "VARIANTS",
    "RefSutState",
    "start_refsut_process",
]

VARIANTS = ("correct", "buggy")

#: Default seeded-bug race window, seconds.  Big enough that overlapping
#: clients collide reliably, small enough to keep campaigns fast.
DEFAULT_RACE_WINDOW = 0.004


class RefSutState:
    """The service's shared state plus its (possibly racy) operations."""

    def __init__(
        self, variant: str = "correct", race_window: float = DEFAULT_RACE_WINDOW
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r} (choose from {VARIANTS})"
            )
        self.variant = variant
        self.race_window = race_window
        self._lock = threading.Lock()
        self._counter = 0
        self._queue: list = []
        self._register = None

    @property
    def buggy(self) -> bool:
        return self.variant == "buggy"

    # -- counter ---------------------------------------------------------

    def op_inc(self) -> None:
        if self.buggy:
            # Seeded bug: unlocked read-modify-write.  Two overlapping
            # incs both read v and both store v+1 — a lost update.
            value = self._counter
            time.sleep(self.race_window)
            self._counter = value + 1
            return None
        with self._lock:
            self._counter += 1
        return None

    def op_get(self):
        with self._lock:
            return self._counter

    # -- queue -----------------------------------------------------------

    def op_Enqueue(self, value) -> None:
        if self.buggy:
            # Seeded bug: copy-sleep-append-replace loses concurrent
            # enqueues (and runs unlocked against TryDequeue).
            items = list(self._queue)
            time.sleep(self.race_window)
            items.append(value)
            self._queue = items
            return None
        with self._lock:
            self._queue.append(value)
        return None

    def op_TryDequeue(self):
        if self.buggy:
            # Seeded bug: unlocked head read then unlocked tail reassign;
            # two overlapping dequeues can return the same element.
            items = self._queue
            if not items:
                return "Fail"
            head = items[0]
            time.sleep(self.race_window)
            self._queue = items[1:]
            return head
        with self._lock:
            if not self._queue:
                return "Fail"
            return self._queue.pop(0)

    # -- register --------------------------------------------------------

    def op_Write(self, value) -> None:
        with self._lock:
            self._register = value
        return None

    def op_Read(self):
        with self._lock:
            return self._register

    # -- dispatch --------------------------------------------------------

    def apply(self, method: str, args: tuple):
        handler = getattr(self, f"op_{method}", None)
        if handler is None:
            raise KeyError(method)
        return handler(*args)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per session

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the server is a test fixture; stay quiet

    def _reply(self, status: int, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _handle_op(self) -> None:
        parsed = urlparse(self.path)
        parts = parsed.path.strip("/").split("/")
        if parsed.path == "/healthz":
            self._reply(200, "ok")
            return
        if len(parts) != 2 or parts[0] != "op":
            self._reply(404, "NotFound")
            return
        method = unquote(parts[1])
        raw_args = parse_qs(parsed.query).get("a", ["()"])[0]
        try:
            args = ast.literal_eval(raw_args)
            if not isinstance(args, tuple):
                raise ValueError("args must be a tuple")
        except (ValueError, SyntaxError):
            self._reply(400, "BadArguments")
            return
        try:
            value = self.server.state.apply(method, args)  # type: ignore[attr-defined]
        except KeyError:
            self._reply(400, "UnknownMethod")
            return
        except TypeError:
            self._reply(400, "BadArity")
            return
        self._reply(200, repr(value))

    do_GET = _handle_op
    do_POST = _handle_op
    do_PUT = _handle_op


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The chaos modes drop connections on purpose; the default traceback
    # spew would drown the campaign output.
    def handle_error(self, request, client_address) -> None:  # noqa: D102
        pass


class RefSutProcess:
    """The reference SUT in a child process — killable mid-campaign."""

    def __init__(self, proc, host: str, port: int) -> None:
        self.proc = proc
        self.host = host
        self.port = port
        self.killed_deliberately = False

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL the service — the chaos ``kill`` mode.

        Waits for the process to be reaped so that :meth:`alive` is
        consistent (False) the moment this returns.
        """
        self.killed_deliberately = True
        self.proc.kill()
        try:
            self.proc.wait(timeout=5)
        except Exception:  # pragma: no cover - SIGKILL cannot be refused
            pass

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except Exception:  # pragma: no cover - last resort
                self.proc.kill()
                self.proc.wait(timeout=5)


def start_refsut_process(
    variant: str = "correct",
    *,
    race_window: float = DEFAULT_RACE_WINDOW,
    startup_timeout: float = 10.0,
) -> RefSutProcess:
    """Spawn ``python -m repro.live.refsut`` and wait for its port line."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.live.refsut",
            "--variant",
            variant,
            "--race-window",
            str(race_window),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + startup_timeout
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()  # type: ignore[union-attr]
        if line.startswith("LINEUP-REFSUT PORT="):
            break
        if proc.poll() is not None:
            raise RuntimeError(
                f"reference SUT exited during startup (code {proc.returncode})"
            )
    else:  # pragma: no cover - startup timeout
        proc.kill()
        raise RuntimeError("reference SUT did not announce its port in time")
    port = int(line.strip().split("=", 1)[1])
    return RefSutProcess(proc, "127.0.0.1", port)


def main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(description="Line-Up reference SUT")
    parser.add_argument("--variant", choices=VARIANTS, default="correct")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--race-window", type=float, default=DEFAULT_RACE_WINDOW
    )
    args = parser.parse_args(argv)
    server = _Server(("127.0.0.1", args.port), _Handler)
    server.state = RefSutState(args.variant, args.race_window)  # type: ignore[attr-defined]
    print(f"LINEUP-REFSUT PORT={server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
