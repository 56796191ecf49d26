"""Ports of the .NET Framework 4.0 concurrency classes (paper Table 1).

Thirteen classes, each available in two vintages selected by the
``version`` constructor argument:

* ``"pre"`` — the technology-preview vintage, carrying the seeded defects
  that reproduce the paper's root causes A–G (see each module's
  docstring for the exact defect),
* ``"beta"`` — the Beta-2 vintage with those defects fixed.

The intentional behaviours H–L (nondeterminism and nonlinearizability
the .NET team chose to document rather than fix) are present in *both*
versions, as in the paper.

Beside them: the counters of Section 2 and the monitor-based
``BoundedBuffer``.  The subjects beyond the paper that no command checks
(spin locks, the Chase–Lev deque, the Harris set) are test subjects and
live under ``tests/structures/``.

:data:`REGISTRY` is the machine-readable Table 1: per class, the factory
and the invocation alphabet used by the checking campaigns.
"""

from repro.structures.barrier import Barrier
from repro.structures.bounded_buffer import BoundedBuffer, BufferEmpty, BufferFull
from repro.structures.blocking_collection import BlockingCollection
from repro.structures.cancellation import CancellationTokenSource, OperationCanceled
from repro.structures.concurrent_bag import ConcurrentBag
from repro.structures.concurrent_dictionary import ConcurrentDictionary
from repro.structures.concurrent_linked_list import ConcurrentLinkedList
from repro.structures.concurrent_queue import ConcurrentQueue
from repro.structures.concurrent_stack import ConcurrentStack
from repro.structures.countdown_event import CountdownEvent
from repro.structures.counters import BuggyCounter1, BuggyCounter2, Counter
from repro.structures.lazy import Lazy
from repro.structures.manual_reset_event import ManualResetEvent
from repro.structures.registry import (
    REGISTRY,
    ROOT_CAUSES,
    ClassUnderTest,
    RootCause,
    get_class,
)
from repro.structures.semaphore_slim import SemaphoreSlim
from repro.structures.task_completion_source import TaskCompletionSource

__all__ = [
    "Barrier",
    "BlockingCollection",
    "BoundedBuffer",
    "BufferEmpty",
    "BufferFull",
    "BuggyCounter1",
    "BuggyCounter2",
    "CancellationTokenSource",
    "ClassUnderTest",
    "ConcurrentBag",
    "ConcurrentDictionary",
    "ConcurrentLinkedList",
    "ConcurrentQueue",
    "ConcurrentStack",
    "Counter",
    "CountdownEvent",
    "Lazy",
    "ManualResetEvent",
    "OperationCanceled",
    "REGISTRY",
    "ROOT_CAUSES",
    "RootCause",
    "SemaphoreSlim",
    "TaskCompletionSource",
    "get_class",
]
