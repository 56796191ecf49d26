"""Fault-injection subjects for the crash-containment test-suite.

These classes live in the installed package (not under ``tests/``) so
spawned workers can import them by module path — a worker resolves its
subject through a *provider* module, and test tasks name this one.

Each class models one way a hostile black-box subject can hurt the
checker, graded by what layer must contain it:

* :class:`CrashingRegister` — ``os._exit(3)`` mid-operation: kills the
  worker process outright; only process isolation survives it.
* :class:`FreezingRegister` — ``SIGSTOP`` to its own process: the whole
  worker wedges, heartbeats stop; the supervisor's heartbeat-loss
  detection must kill and retry.
* :class:`AllocatingRegister` — allocates without bound: the sandbox's
  ``RLIMIT_AS`` turns it into a ``MemoryError`` (an ordinary exceptional
  response) or an isolated worker death instead of a host OOM.
* :class:`ExitingRegister` — raises ``SystemExit`` mid-operation: the
  harness already converts it into an exceptional response in-process;
  included to pin that the layers compose.
* :class:`FlakyRegister` — verdict flips once per environment (via a
  marker file under ``LINEUP_FAULT_DIR``): the first check observes
  nondeterministic serial behaviour (FAIL), every later one is
  deterministic (PASS).  Drives the flaky-verdict guard.
* :class:`NondetRegister` — nondeterministic in *every* process (a
  per-process instantiation counter leaks into results): a FAIL that a
  re-check confirms.
* :class:`RacyCounter` — serially clean, but dies via ``os._exit(5)``
  under some concurrent interleavings only: phase 1 passes, and only
  the phase-2 shard whose subtree contains the killer interleaving
  crashes its workers.  Drives the swarm quarantine path (lost-shard
  requeue, retry caps, and the resumable shard checkpoint).
* :class:`OpaqueRegister` — a correct register whose value sits in a
  closure, which phase 1's state walk cannot key: phase 1 runs it as
  plain replay and says why.
* :class:`GoodRegister` — a well-behaved control subject.

``BoundedBuffer`` is also registered here (the registry's worked
monitor example), so sharded fault-injection tests and the CI smoke job
can check it through this provider inside spawned workers.

The ``get_class`` here falls back to the paper's Table 1 registry, so a
campaign plan can mix hostile classes with real ones.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Any

from repro.core.events import Invocation
from repro.runtime import Runtime
from repro.structures.bounded_buffer import BoundedBuffer as _BoundedBuffer
from repro.structures.registry import ClassUnderTest
from repro.structures.registry import get_class as _registry_get_class

__all__ = [
    "CRASHING_REGISTER_EXIT",
    "FAULT_REGISTRY",
    "RACY_COUNTER_EXIT",
    "get_class",
]

#: Exit status of a worker felled by :class:`CrashingRegister`.
CRASHING_REGISTER_EXIT = 3
#: Exit status of a worker felled by :class:`RacyCounter` — the code
#: the swarm quarantine/repro path observes in crashed shards.
RACY_COUNTER_EXIT = 5


def _inv(method: str, *args: Any) -> Invocation:
    return Invocation(method, args)


def _fault_dir() -> str:
    return os.environ.get("LINEUP_FAULT_DIR", "")


class GoodRegister:
    """A correct register: linearizable, deterministic, boring."""

    def __init__(self, rt: Runtime) -> None:
        self._cell = rt.volatile(0)

    def Get(self) -> int:
        return self._cell.get()

    def Set(self, value: int) -> None:
        self._cell.set(value)


class CrashingRegister(GoodRegister):
    """``Boom`` ends the hosting process with ``os._exit(3)`` mid-operation."""

    def Boom(self) -> None:
        sys.stderr.write("CrashingRegister: going down via os._exit(3)\n")
        sys.stderr.flush()
        os._exit(CRASHING_REGISTER_EXIT)


class FreezingRegister(GoodRegister):
    """``Freeze`` SIGSTOPs its own process: heartbeats cease, nothing dies."""

    def Freeze(self) -> None:
        os.kill(os.getpid(), signal.SIGSTOP)


class AllocatingRegister(GoodRegister):
    """``Hog`` allocates ~64 MiB per step until something gives.

    The iteration cap bounds the damage to ~2 GiB even if the sandbox
    failed to apply ``RLIMIT_AS`` (e.g. on a non-POSIX platform).
    """

    def Hog(self) -> int:
        hoard = []
        for _ in range(32):
            hoard.append(bytearray(64 * 1024 * 1024))
        return len(hoard)


class ExitingRegister(GoodRegister):
    """``Quit`` raises ``SystemExit`` mid-operation (harness-containable)."""

    def Quit(self) -> None:
        raise SystemExit(7)


class FlakyRegister:
    """FAILs the first check per environment, PASSes ever after.

    Construction flips a marker file under ``LINEUP_FAULT_DIR``; ``Get``
    returns whether the marker predated this instance.  During the first
    check's phase 1 the marker appears *between* serial executions, so
    the same serial prefix yields two different responses — a
    nondeterminism FAIL.  Once the marker exists, behaviour is constant
    and the check PASSes.  Together with a crash in the same worker this
    reproduces exactly the scenario the flaky-verdict guard exists for.
    """

    def __init__(self, rt: Runtime) -> None:
        fault_dir = _fault_dir()
        if not fault_dir:
            # No fault dir configured: degrade to a deterministic
            # register rather than littering marker files in the cwd.
            self._seen = True
            return
        marker = os.path.join(fault_dir, "flaky-marker")
        self._seen = os.path.exists(marker)
        if not self._seen:
            try:
                with open(marker, "x"):
                    pass
            except OSError:
                pass

    def Get(self) -> bool:
        return self._seen


_NONDET_COUNTER = {"value": 0}


class NondetRegister:
    """Serially nondeterministic in every process (a confirmed FAIL).

    A module-global instantiation counter leaks into ``Get``: phase 1's
    successive serial executions observe different responses for the same
    serial prefix, so every check of this class FAILs, in any process.
    """

    def __init__(self, rt: Runtime) -> None:
        _NONDET_COUNTER["value"] += 1
        self._stamp = _NONDET_COUNTER["value"]

    def Get(self) -> int:
        return self._stamp


class RacyCounter:
    """Dies only under specific concurrent interleavings.

    ``Incr`` reads the counter twice before writing; each volatile
    access is a scheduling point, so a concurrent ``Incr`` can slip its
    write between the two reads — and when that torn read is observed
    the process dies via ``os._exit(5)``.  No serial execution can
    trigger it (phase 1 is clean), so in a swarm run only the shards
    whose subtree contains a torn interleaving crash their workers and
    get quarantined.  A partition probe is not always clean either: it
    follows its prefix, and a prefix that already pins the torn read
    kills the probe's worker (``check RacyCounter --provider
    repro.exec.faults --test "Incr | Incr" --shards 4 --max-retries 0``
    deals two such prefixes as opaque shards).
    """

    def __init__(self, rt: Runtime) -> None:
        self._cell = rt.volatile(0)

    def Incr(self) -> None:
        # Returns None so a lost update is not itself a linearizability
        # violation — the *only* observable hostility is the crash.
        seen = self._cell.get()
        current = self._cell.get()
        if current != seen:
            sys.stderr.write(
                "RacyCounter: torn increment, dying via os._exit(5)\n"
            )
            sys.stderr.flush()
            os._exit(RACY_COUNTER_EXIT)
        self._cell.set(current + 1)

    def Get(self) -> int:
        return self._cell.get()


class OpaqueRegister:
    """A correct register that keeps its cell in closures.

    :func:`repro.runtime.statekey.state_key` cannot see into a closure,
    so phase 1 does not explore this subject by state: every serial
    execution is replayed, and ``phase1.mode`` names the closure.
    """

    def __init__(self, rt: Runtime) -> None:
        cell = rt.volatile(0)
        self._get = lambda: cell.get()
        self._set = lambda value: cell.set(value)

    def Get(self) -> int:
        return self._get()

    def Set(self, value: int) -> None:
        self._set(value)


def _entry(name: str, cls: type, invocations: tuple[Invocation, ...]) -> ClassUnderTest:
    return ClassUnderTest(
        name=name,
        make=lambda rt, v, _cls=cls: _cls(rt),
        invocations=invocations,
        notes="fault-injection subject (crash-containment suite)",
    )


FAULT_REGISTRY: tuple[ClassUnderTest, ...] = (
    _entry("GoodRegister", GoodRegister, (_inv("Get"), _inv("Set", 1))),
    _entry("CrashingRegister", CrashingRegister, (_inv("Boom"),)),
    _entry("FreezingRegister", FreezingRegister, (_inv("Freeze"),)),
    _entry("AllocatingRegister", AllocatingRegister, (_inv("Hog"),)),
    _entry("ExitingRegister", ExitingRegister, (_inv("Quit"), _inv("Get"))),
    _entry("FlakyRegister", FlakyRegister, (_inv("Get"),)),
    _entry("NondetRegister", NondetRegister, (_inv("Get"),)),
    _entry("RacyCounter", RacyCounter, (_inv("Incr"), _inv("Get"))),
    _entry("OpaqueRegister", OpaqueRegister, (_inv("Get"), _inv("Set", 1))),
    ClassUnderTest(
        name="BoundedBuffer",
        make=lambda rt, v: _BoundedBuffer(rt, v),
        invocations=(
            _inv("Put", 1),
            _inv("Take"),
            _inv("TryTake"),
            _inv("Size"),
        ),
        notes="monitor worked example, exposed for sharded worker checks",
    ),
)


def get_class(name: str) -> ClassUnderTest:
    """Resolve a fault class, falling back to the Table 1 registry."""
    for entry in FAULT_REGISTRY:
        if entry.name == name:
            return entry
    return _registry_get_class(name)
