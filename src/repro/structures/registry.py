"""The class inventory of the paper's evaluation (Tables 1 and 2).

One :class:`ClassUnderTest` entry per .NET class the paper checked, with:

* a factory maker producing fresh instances of a given *version*
  ("pre" = the technology-preview vintage with the seeded root-cause
  defects, "beta" = the Beta-2 vintage with the bugs fixed),
* the invocation alphabet of Table 1 (adapted to this port's method
  names and canonical argument values),
* the per-version root causes (Table 2's A..L tags) the campaign is
  expected to surface, and curated minimal failing tests for each.

The registry drives the Table 1 / Table 2 benchmarks and the
integration-test suite.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import Invocation
from repro.core.testcase import FiniteTest
from repro.runtime import Runtime
from repro.structures.barrier import Barrier
from repro.structures.blocking_collection import BlockingCollection
from repro.structures.cancellation import CancellationTokenSource
from repro.structures.concurrent_bag import ConcurrentBag
from repro.structures.concurrent_dictionary import ConcurrentDictionary
from repro.structures.concurrent_linked_list import ConcurrentLinkedList
from repro.structures.concurrent_queue import ConcurrentQueue
from repro.structures.concurrent_stack import ConcurrentStack
from repro.structures.countdown_event import CountdownEvent
from repro.structures.lazy import Lazy
from repro.structures.manual_reset_event import ManualResetEvent
from repro.structures.semaphore_slim import SemaphoreSlim
from repro.structures.task_completion_source import TaskCompletionSource

__all__ = [
    "ClassUnderTest", "REGISTRY", "RootCause", "ROOT_CAUSES", "get_class",
    "resolve_class",
]


def _inv(method: str, *args: Any) -> Invocation:
    return Invocation(method, args)


@dataclass(frozen=True)
class RootCause:
    """One of the paper's Table 2 root causes (A..L)."""

    tag: str
    category: str  #: "bug", "nondeterministic", or "nonlinearizable"
    summary: str
    #: a curated minimal test exposing the cause (dimension column of
    #: Table 2); None for causes found only by random campaigns.
    witness_test: FiniteTest | None = None
    #: which version(s) exhibit the cause.
    versions: tuple[str, ...] = ("pre",)


ROOT_CAUSES: dict[str, RootCause] = {}


def _cause(
    tag: str,
    category: str,
    summary: str,
    witness_test: FiniteTest | None,
    versions: tuple[str, ...] = ("pre",),
) -> RootCause:
    cause = RootCause(tag, category, summary, witness_test, versions)
    ROOT_CAUSES[tag] = cause
    return cause


@dataclass(frozen=True)
class ClassUnderTest:
    """A class of Table 1: factory, invocation alphabet, known causes."""

    name: str
    make: Callable[[Runtime, str], Any]
    invocations: tuple[Invocation, ...]
    causes: tuple[RootCause, ...] = ()
    init: tuple[Invocation, ...] = ()
    notes: str = ""

    def factory(self, version: str) -> Callable[[Runtime], Any]:
        """A SystemUnderTest-compatible factory for *version*."""
        return lambda rt: self.make(rt, version)

    def causes_for(self, version: str) -> tuple[RootCause, ...]:
        return tuple(c for c in self.causes if version in c.versions)

    @property
    def method_count(self) -> int:
        return len(self.invocations)


# --------------------------------------------------------------------------
# Root causes, with the curated minimal witnesses of Table 2.
# --------------------------------------------------------------------------

_A = _cause(
    "A",
    "bug",
    "ManualResetEvent: CAS typo re-reads shared state; Wait blocks forever "
    "(paper Fig. 9)",
    FiniteTest.of(
        [[_inv("Wait")], [_inv("Set"), _inv("Reset"), _inv("Set")]]
    ),
)
_B = _cause(
    "B",
    "bug",
    "SemaphoreSlim: non-atomic decrement in Wait; count goes negative / "
    "permits over-consumed",
    FiniteTest.of(
        [[_inv("WaitZero"), _inv("CurrentCount")], [_inv("WaitZero")]]
    ),
)
_C = _cause(
    "C",
    "bug",
    "CountdownEvent: Signal loses concurrent signals; event never sets and "
    "Wait deadlocks",
    FiniteTest.of([[_inv("Signal", 1), _inv("Wait")], [_inv("Signal", 1)]]),
)
_D_BC = _cause(
    "D",
    "bug",
    "BlockingCollection/ConcurrentQueue: timed lock acquire in TryTake; "
    "failure reported though non-empty (paper Fig. 1)",
    FiniteTest.of(
        [[_inv("Add", 200), _inv("Add", 400)], [_inv("TryTake"), _inv("TryTake")]]
    ),
)
_D_CQ = RootCause(
    "D",
    "bug",
    ROOT_CAUSES["D"].summary,
    FiniteTest.of(
        [
            [_inv("Enqueue", 200), _inv("TryDequeue")],
            [_inv("Enqueue", 400), _inv("TryDequeue")],
        ]
    ),
    ("pre",),
)
# Key 20 hashes to stripe 0, key 10 to stripe 2; Count reads the stripes
# in ascending order.  Unlocked, it can observe key 20 before the remove
# *and* key 10 after the add, returning 2 where every serial execution
# yields 0 or 1.
_E = _cause(
    "E",
    "bug",
    "ConcurrentDictionary: Count sums stripe sizes without locks; count "
    "outside any serial envelope",
    FiniteTest.of(
        [[_inv("TryRemove", 20), _inv("TryAdd", 10)], [_inv("Count")]],
        init=[_inv("TryAdd", 20)],
    ),
)
_F = _cause(
    "F",
    "bug",
    "ConcurrentStack: TryPopRange publishes the new head with a plain store; "
    "a concurrent Push is lost",
    FiniteTest.of(
        [
            [_inv("Push", 10), _inv("TryPopRange", 1)],
            [_inv("Push", 20), _inv("ToArray")],
        ]
    ),
)
_G = _cause(
    "G",
    "bug",
    "Lazy: created flag published before the value; Value returns the "
    "uninitialized default",
    FiniteTest.of([[_inv("Value")], [_inv("Value")]]),
)
_H = _cause(
    "H",
    "nondeterministic",
    "ConcurrentBag: TryTake skips busy victims; can fail while non-empty "
    "(unordered-bag semantics, documented)",
    FiniteTest.of(
        [[_inv("Add", 10), _inv("Add", 20)], [_inv("TryTake")]],
    ),
    versions=("pre", "beta"),
)
_I = _cause(
    "I",
    "nondeterministic",
    "BlockingCollection: Count lags the store; can return 0 while ToArray "
    "shows items (documented)",
    FiniteTest.of([[_inv("Add", 10)], [_inv("ToArray"), _inv("Count")]]),
    versions=("pre", "beta"),
)
_J = _cause(
    "J",
    "nondeterministic",
    "BlockingCollection: TryTake's zero-timeout credit wait loses CAS races; "
    "fails while non-empty (documented)",
    FiniteTest.of(
        [
            [_inv("Add", 10), _inv("TryTake")],
            [_inv("Add", 20), _inv("TryTake")],
        ]
    ),
    versions=("pre", "beta"),
)
_K = _cause(
    "K",
    "nonlinearizable",
    "CancellationTokenSource: cancellation effects land after Cancel "
    "returns (asynchronous callbacks)",
    FiniteTest.of([[_inv("Cancel"), _inv("Increment")]]),
    versions=("pre", "beta"),
)
_L = _cause(
    "L",
    "nonlinearizable",
    "Barrier: SignalAndWait rendezvous is not equivalent to any serial "
    "execution",
    FiniteTest.of([[_inv("SignalAndWait")], [_inv("SignalAndWait")]]),
    versions=("pre", "beta"),
)


# --------------------------------------------------------------------------
# Table 1: the thirteen classes and their invocation alphabets.
# --------------------------------------------------------------------------

REGISTRY: tuple[ClassUnderTest, ...] = (
    ClassUnderTest(
        name="Lazy",
        make=lambda rt, v: Lazy(rt, v),
        invocations=(_inv("Value"), _inv("ToString"), _inv("IsValueCreated")),
        causes=(_G,),
    ),
    ClassUnderTest(
        name="ManualResetEvent",
        make=lambda rt, v: ManualResetEvent(rt, v),
        invocations=(
            _inv("Set"),
            _inv("Wait"),
            _inv("Reset"),
            _inv("IsSet"),
            _inv("WaitOne"),
        ),
        causes=(_A,),
    ),
    ClassUnderTest(
        name="SemaphoreSlim",
        make=lambda rt, v: SemaphoreSlim(rt, v, initial=1),
        invocations=(
            _inv("CurrentCount"),
            _inv("Release"),
            _inv("Release", 2),
            _inv("Wait"),
            _inv("WaitZero"),
        ),
        causes=(_B,),
    ),
    ClassUnderTest(
        name="CountdownEvent",
        make=lambda rt, v: CountdownEvent(rt, v, initial=2),
        invocations=(
            _inv("IsSet"),
            _inv("Wait"),
            _inv("WaitZero"),
            _inv("CurrentCount"),
            _inv("Signal", 1),
            _inv("Signal", 2),
            _inv("AddCount", 1),
            _inv("TryAddCount", 1),
        ),
        causes=(_C,),
    ),
    ClassUnderTest(
        name="ConcurrentDictionary",
        make=lambda rt, v: ConcurrentDictionary(rt, v),
        invocations=tuple(
            _inv(method, key)
            for key in (10, 20)
            for method in (
                "TryAdd",
                "TryRemove",
                "TryGetValue",
                "GetItem",
                "SetItem",
                "TryUpdate",
                "ContainsKey",
            )
        )
        + (_inv("Count"), _inv("IsEmpty"), _inv("Clear")),
        causes=(_E,),
    ),
    ClassUnderTest(
        name="ConcurrentQueue",
        make=lambda rt, v: ConcurrentQueue(rt, v),
        invocations=(
            _inv("Count"),
            _inv("IsEmpty"),
            _inv("Enqueue", 10),
            _inv("Enqueue", 20),
            _inv("ToArray"),
            _inv("TryDequeue"),
            _inv("TryPeek"),
        ),
        causes=(_D_CQ,),
    ),
    ClassUnderTest(
        name="ConcurrentStack",
        make=lambda rt, v: ConcurrentStack(rt, v),
        invocations=(
            _inv("Clear"),
            _inv("Count"),
            _inv("Push", 10),
            _inv("Push", 20),
            _inv("PushRange", 10, 20),
            _inv("TryPop"),
            _inv("TryPopRange", 1),
            _inv("TryPopRange", 2),
            _inv("TryPopRange", 4),
            _inv("TryPeek"),
            _inv("ToArray"),
        ),
        causes=(_F,),
    ),
    ClassUnderTest(
        name="ConcurrentLinkedList",
        make=lambda rt, v: ConcurrentLinkedList(rt, v),
        invocations=(
            _inv("Count"),
            _inv("AddFirst", 10),
            _inv("AddLast", 20),
            _inv("RemoveFirst"),
            _inv("RemoveLast"),
            _inv("Remove", 10),
            _inv("ToArray"),
        ),
        notes="preview-only class, cut before Beta 2; no seeded defect",
    ),
    ClassUnderTest(
        name="BlockingCollection",
        make=lambda rt, v: BlockingCollection(rt, v),
        invocations=(
            _inv("Count"),
            _inv("ToArray"),
            _inv("TryAdd", 10),
            _inv("IsCompleted"),
            _inv("IsAddingCompleted"),
            _inv("CompleteAdding"),
            _inv("Add", 10),
            _inv("Add", 20),
            _inv("Take"),
            _inv("TryTake"),
        ),
        causes=(_D_BC, _I, _J),
    ),
    ClassUnderTest(
        name="ConcurrentBag",
        make=lambda rt, v: ConcurrentBag(rt, v),
        invocations=(
            _inv("Count"),
            _inv("Add", 10),
            _inv("Add", 20),
            _inv("TryTake"),
            _inv("IsEmpty"),
            _inv("TryPeek"),
            _inv("ToArray"),
        ),
        causes=(_H,),
    ),
    ClassUnderTest(
        name="TaskCompletionSource",
        make=lambda rt, v: TaskCompletionSource(rt, v),
        invocations=(
            _inv("Exception"),
            _inv("TrySetCanceled"),
            _inv("TrySetException"),
            _inv("TrySetResult", 1),
            _inv("SetCanceled"),
            _inv("SetException"),
            _inv("SetResult", 1),
            _inv("Wait"),
            _inv("TryResult"),
        ),
        notes="no seeded defect: a clean-pass row of Table 2",
    ),
    ClassUnderTest(
        name="CancellationTokenSource",
        make=lambda rt, v: CancellationTokenSource(rt, v),
        invocations=(_inv("Increment"), _inv("Cancel")),
        causes=(_K,),
    ),
    ClassUnderTest(
        name="Barrier",
        make=lambda rt, v: Barrier(rt, v, participants=2),
        invocations=(
            _inv("SignalAndWait"),
            _inv("ParticipantsRemaining"),
            _inv("RemoveParticipant"),
            _inv("CurrentPhaseNumber"),
            _inv("ParticipantCount"),
            _inv("AddParticipant"),
        ),
        causes=(_L,),
    ),
)


def get_class(name: str) -> ClassUnderTest:
    """Look up a registry entry by class name."""
    for entry in REGISTRY:
        if entry.name == name:
            return entry
    raise KeyError(f"no class named {name!r} in the registry")


def resolve_class(name: str, provider: str | None = None) -> ClassUnderTest:
    """Look up *name* through the *provider* module (default: the registry).

    A provider is any importable module exposing ``get_class(name)``: the
    one indirection by which sandboxed workers, checkpoints and crash
    reports name a subject, so each resolves the exact class that ran.
    """
    if not provider:
        return get_class(name)
    try:
        lookup = importlib.import_module(provider).get_class
    except (ImportError, AttributeError) as exc:
        raise KeyError(
            f"provider module {provider!r} cannot resolve classes: {exc}"
        ) from exc
    return lookup(name)


def list_command(args, stop):
    """``list``: the Table 1 inventory (``-v``: with each alphabet) and
    the Table 2 root causes."""
    from repro.command import Outcome

    lines = [f"{'class':26s} {'methods':>7s}  root causes (pre / beta)"]
    for entry in REGISTRY:
        pre = ",".join(c.tag for c in entry.causes_for("pre")) or "-"
        beta = ",".join(c.tag for c in entry.causes_for("beta")) or "-"
        lines.append(f"{entry.name:26s} {entry.method_count:7d}  {pre} / {beta}")
        if args.verbose:
            lines += [f"{'':36s}{invocation}" for invocation in entry.invocations]
    lines += ["", "root causes:"]
    for tag in sorted(ROOT_CAUSES):
        cause = ROOT_CAUSES[tag]
        lines.append(f"  {tag} [{cause.category}] {cause.summary}")
    return Outcome("PASS", lambda: "\n".join(lines))
