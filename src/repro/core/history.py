"""Histories and serial histories (paper Sections 2.1 and 2.3).

:class:`History` is the general object: a finite sequence of call/return
events, possibly marked *stuck* (the paper's ``H#`` notation) when the
execution could not make progress.  It provides the derived notions the
definitions are built from: operations, pending/complete status, thread
subhistories, ``complete(H)``, the precedence partial order ``<H`` and the
projection ``H[e]`` used by Definition 2.

:class:`SerialHistory` is the compact representation used for synthesized
specifications: a linear sequence of completed operations, optionally
followed by one pending operation when the serial execution got stuck.
Phase 1 produces these; the witness search and determinism check consume
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from repro.core.events import CALL, Event, Invocation, Operation, Response

__all__ = ["History", "OpView", "Profile", "SerialHistory", "SerialStep"]

#: Per-thread observable behaviour: for each thread, the sequence of
#: (invocation, response-or-None) pairs it performed, in program order.
#: Two histories with equal profiles agree on "what every thread did and
#: saw", which is condition 2 of the serial-witness definition.
Profile = tuple[tuple[tuple[Invocation, Response | None], ...], ...]


@dataclass(frozen=True)
class SerialStep:
    """One operation of a serial history: thread, invocation, response.

    ``response`` is None only for the trailing pending operation of a
    stuck serial history.
    """

    thread: int
    invocation: Invocation
    response: Response | None

    def __str__(self) -> str:
        name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[self.thread] if self.thread < 26 else f"T{self.thread}"
        res = "#" if self.response is None else str(self.response)
        return f"{name}:{self.invocation} -> {res}"


class History:
    """A (possibly stuck) well-formed single-object history."""

    def __init__(
        self,
        events: Iterable[Event],
        n_threads: int,
        stuck: bool = False,
        divergent: bool = False,
    ):
        self.events: tuple[Event, ...] = tuple(events)
        self.n_threads = n_threads
        self.stuck = stuck
        # A divergent history is a stuck history that was cut off by the
        # watchdog rather than by a scheduler-detected deadlock/livelock:
        # the pending operation ran away in uninstrumented code.  It is
        # *classified* like stuck (the operation observably never
        # responded), so ``divergent`` is annotation only — deliberately
        # excluded from __eq__/__hash__.
        self.divergent = divergent
        # Set by a producer that records canonical event objects (the
        # harness's per-test event table, in phase 2): a hashable token
        # that two histories of one exploration share exactly when their
        # events, ``stuck`` and ``divergent`` agree — with values compared
        # by exact type, so finer than ``==``.  None means "no token":
        # such a history is only ever compared by value.  Like
        # ``divergent`` it is annotation, excluded from __eq__/__hash__.
        self.key: tuple | None = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return (
            self.events == other.events
            and self.stuck == other.stuck
            and self.n_threads == other.n_threads
        )

    def __hash__(self) -> int:
        return hash((self.events, self.stuck, self.n_threads))

    def __str__(self) -> str:
        body = " ".join(str(e) for e in self.events)
        return f"{body} #" if self.stuck else body

    # -- operations ------------------------------------------------------

    @cached_property
    def operations(self) -> tuple[Operation, ...]:
        """All operations of the history, in call order."""
        calls: dict[tuple[int, int], tuple[int, Invocation]] = {}
        ops: dict[tuple[int, int], Operation] = {}
        order: list[tuple[int, int]] = []
        for pos, event in enumerate(self.events):
            key = (event.thread, event.op_index)
            if event.is_call:
                assert event.invocation is not None
                calls[key] = (pos, event.invocation)
                order.append(key)
            else:
                call_pos, invocation = calls[key]
                ops[key] = Operation(
                    thread=event.thread,
                    op_index=event.op_index,
                    invocation=invocation,
                    response=event.response,
                    call_pos=call_pos,
                    return_pos=pos,
                )
        for key in order:
            if key not in ops:
                call_pos, invocation = calls[key]
                ops[key] = Operation(
                    thread=key[0],
                    op_index=key[1],
                    invocation=invocation,
                    response=None,
                    call_pos=call_pos,
                    return_pos=None,
                )
        return tuple(ops[key] for key in order)

    @cached_property
    def operation_map(self) -> dict[tuple[int, int], Operation]:
        return {op.key: op for op in self.operations}

    @property
    def pending_operations(self) -> tuple[Operation, ...]:
        return tuple(op for op in self.operations if op.pending)

    @property
    def complete_operations(self) -> tuple[Operation, ...]:
        return tuple(op for op in self.operations if op.complete)

    @property
    def is_full(self) -> bool:
        """Complete (no pending calls) and not stuck."""
        return not self.stuck and all(op.complete for op in self.operations)

    # -- structural predicates (paper 2.1.1) ------------------------------

    def thread_subhistory(self, thread: int) -> tuple[Event, ...]:
        """H|t — the subsequence of events performed by *thread*."""
        return tuple(e for e in self.events if e.thread == thread)

    @cached_property
    def is_well_formed(self) -> bool:
        """Every thread subhistory is serial (calls/returns alternate)."""
        for t in range(self.n_threads):
            expect_call = True
            last_key: tuple[int, int] | None = None
            for event in self.thread_subhistory(t):
                if event.is_call != expect_call:
                    return False
                if event.is_return and (event.thread, event.op_index) != last_key:
                    return False
                last_key = (event.thread, event.op_index)
                expect_call = not expect_call
        return True

    @cached_property
    def is_serial(self) -> bool:
        """Calls and returns alternate and each return matches its call."""
        if not self.events:
            return True
        if not self.events[0].is_call:
            return False
        expect_call = True
        last_key: tuple[int, int] | None = None
        for event in self.events:
            if event.is_call != expect_call:
                return False
            if event.is_return and (event.thread, event.op_index) != last_key:
                return False
            last_key = (event.thread, event.op_index)
            expect_call = not expect_call
        return True

    # -- derived histories -------------------------------------------------

    def complete_history(self) -> "History":
        """complete(H): the history with all pending calls deleted."""
        pending = {op.key for op in self.pending_operations}
        kept = [
            e for e in self.events if not (e.is_call and (e.thread, e.op_index) in pending)
        ]
        return History(kept, self.n_threads, stuck=False)

    def project_pending(self, op: Operation) -> "History":
        """H[e]: drop all pending calls except the one of *op* (Def. 2)."""
        if not op.pending:
            raise ValueError(f"{op} is not pending in this history")
        drop = {o.key for o in self.pending_operations if o.key != op.key}
        kept = [
            e for e in self.events if not (e.is_call and (e.thread, e.op_index) in drop)
        ]
        return History(kept, self.n_threads, stuck=True)

    # -- the precedence order <H (paper 2.1.3) ----------------------------

    def precedes(self, a: Operation, b: Operation) -> bool:
        """e1 <H e2: the response of e1 precedes the invocation of e2."""
        return a.return_pos is not None and a.return_pos < b.call_pos

    def overlapping(self, a: Operation, b: Operation) -> bool:
        """Neither operation precedes the other."""
        return not self.precedes(a, b) and not self.precedes(b, a)

    # -- observational summaries ------------------------------------------

    @cached_property
    def profile(self) -> Profile:
        """Per-thread (invocation, response) sequences (see Profile)."""
        rows: list[list[tuple[Invocation, Response | None]]] = [
            [] for _ in range(self.n_threads)
        ]
        for op in sorted(self.operations, key=lambda o: (o.thread, o.op_index)):
            rows[op.thread].append((op.invocation, op.response))
        return tuple(tuple(row) for row in rows)

    def to_serial(self) -> "SerialHistory":
        """Convert to the compact serial representation, in one pass.

        Rejects what is not a serial history: calls and returns must
        alternate, each return must match the call before it, and only a
        stuck history may end with a pending call.
        """
        steps: list[SerialStep] = []
        call: Event | None = None
        for event in self.events:
            if event.kind == CALL:
                if call is not None:
                    raise ValueError("history is not serial")
                call = event
            elif (
                call is None
                or event.thread != call.thread
                or event.op_index != call.op_index
            ):
                raise ValueError("history is not serial")
            else:
                steps.append(SerialStep(call.thread, call.invocation, event.response))
                call = None
        if call is not None:
            if not self.stuck:
                raise ValueError("pending final operation but history not stuck")
            steps.append(SerialStep(call.thread, call.invocation, None))
        return SerialHistory(tuple(steps), stuck=self.stuck)


@dataclass(frozen=True)
class OpView:
    """An operation as placed in a serial history: key plus position."""

    thread: int
    op_index: int
    position: int


@dataclass(frozen=True)
class SerialHistory:
    """A serial (fully ordered) history in compact form.

    ``steps`` lists the operations in their serial order.  When ``stuck``
    is True the last step is the pending operation (response None), which
    corresponds to the paper's ``H (o i t) #`` stuck serial histories.
    """

    steps: tuple[SerialStep, ...]
    stuck: bool = False

    def __post_init__(self) -> None:
        for i, step in enumerate(self.steps):
            last = i == len(self.steps) - 1
            if step.response is None and not (last and self.stuck):
                raise ValueError("only the final step of a stuck history may be pending")
        if self.stuck and (not self.steps or self.steps[-1].response is not None):
            raise ValueError("a stuck serial history must end with a pending step")

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        body = "; ".join(str(s) for s in self.steps)
        return f"<{body}>" + (" #" if self.stuck else "")

    @cached_property
    def profile(self) -> Profile:
        n_threads = 1 + max((s.thread for s in self.steps), default=-1)
        rows: list[list[tuple[Invocation, Response | None]]] = [
            [] for _ in range(n_threads)
        ]
        for step in self.steps:
            rows[step.thread].append((step.invocation, step.response))
        return tuple(tuple(row) for row in rows)

    def profile_for(self, n_threads: int) -> Profile:
        """Profile padded with empty rows up to *n_threads* columns."""
        base = list(self.profile)
        while len(base) < n_threads:
            base.append(())
        return tuple(base)

    @cached_property
    def positions(self) -> dict[tuple[int, int], int]:
        """Map (thread, per-thread op index) -> serial position."""
        counters: dict[int, int] = {}
        out: dict[tuple[int, int], int] = {}
        for pos, step in enumerate(self.steps):
            idx = counters.get(step.thread, 0)
            counters[step.thread] = idx + 1
            out[(step.thread, idx)] = pos
        return out

    def tokens(self) -> tuple:
        """Flatten to the event-token sequence used by the determinism trie.

        Tokens alternate ``("c", thread, invocation)`` and
        ``("r", thread, response)``; a stuck history ends with ``"#"``
        after its final call token.
        """
        out: list = []
        for step in self.steps:
            out.append(("c", step.thread, step.invocation))
            if step.response is not None:
                out.append(("r", step.thread, step.response))
        if self.stuck:
            out.append("#")
        return tuple(out)

    def to_history(self, n_threads: int | None = None) -> History:
        """Expand to an explicit event-level :class:`History`."""
        counters: dict[int, int] = {}
        events: list[Event] = []
        for step in self.steps:
            idx = counters.get(step.thread, 0)
            counters[step.thread] = idx + 1
            events.append(Event.call(step.thread, idx, step.invocation))
            if step.response is not None:
                events.append(Event.ret(step.thread, idx, step.response))
        if n_threads is None:
            n_threads = 1 + max((s.thread for s in self.steps), default=-1)
        return History(events, n_threads, stuck=self.stuck)
