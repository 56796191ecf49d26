"""Events, invocations, responses and operations (paper Section 2.1).

The paper models an execution as a *history*: a finite sequence of call
and return events.  Following Theorem 1 of Herlihy & Wing (cited by the
paper), linearizability of multi-object histories reduces to single-object
histories, and Line-Up checks one object at a time — so events here carry
a thread and an action but no object field.

* :class:`Invocation` — an operation name plus argument values, e.g.
  ``Invocation("Add", (200,))``.  Invocation equality is what the test
  matrices, the observation files and the determinism check compare.
* :class:`Response` — the observed outcome of an operation: a returned
  value (``ok(v)`` in the paper's notation) or a raised exception, which
  we treat as just another response value so that exception behaviour is
  also required to be deterministic.
* :class:`Event` — one call or return performed by a logical thread.
* :class:`Operation` — an invocation paired with its matching response
  (or pending), plus its position information inside a history.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any

__all__ = [
    "Event", "Invocation", "Operation", "Response",
    "plain_invocation", "plain_response", "typed",
]

#: Payload types whose ``repr`` is a function of exact type and value
#: (floats are not: ``0.0 == -0.0``).
_PLAIN_TYPES = frozenset({int, bool, str, type(None)})


def typed(value: Any) -> Any:
    """*value* tagged with its exact type, tuples element-wise.

    The key under which an argument or result value may stand for every
    value that prints like it: ``1 == True == 1.0`` and they hash alike,
    but they ``repr`` differently, so a memo or an intern table keyed by
    the bare value would hand one of them the other's text.  Raises
    :class:`TypeError` for anything but plain values and tuples of them;
    such a value is never shared.
    """
    kind = value.__class__
    if kind in _PLAIN_TYPES:
        return kind, value
    if kind is tuple:
        return tuple(map(typed, value))
    raise TypeError(kind)


def _fmt_value(value: Any) -> str:
    if isinstance(value, str):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Invocation:
    """An operation name with arguments — an element of the set I_o.

    ``method`` is the attribute name invoked on the object under test;
    ``args`` are the positional arguments.  Arguments must be hashable
    (they are compared and hashed when grouping observations).

    ``target`` names the object in *multi-object* tests (None for the
    ordinary single-object case).  Following the paper's use of
    Theorem 1 [Herlihy & Wing], multi-object histories are checked by
    reducing to the per-object projections — see
    :mod:`repro.core.multi`.
    """

    method: str
    args: tuple = ()
    target: str | None = None

    def __str__(self) -> str:
        prefix = f"{self.target}." if self.target else ""
        if not self.args:
            return f"{prefix}{self.method}()"
        return (
            f"{prefix}{self.method}"
            f"({', '.join(_fmt_value(a) for a in self.args)})"
        )


#: Response kinds.
OK = "ok"
RAISED = "raised"


@dataclass(frozen=True)
class Response:
    """The observed outcome of an operation — an element of the set R_o.

    ``kind`` is :data:`OK` for a normal return (``value`` is the returned
    value, possibly None) or :data:`RAISED` for an exception (``value`` is
    the exception type name).  Exceptions are deliberately first-class
    responses: a method that sometimes raises and sometimes returns under
    the same serial circumstances is nondeterministic.
    """

    kind: str
    value: Any = None

    def __str__(self) -> str:
        if self.kind == RAISED:
            return f"raised {self.value}"
        if self.value is None:
            return "ok"
        return f"ok({_fmt_value(self.value)})"

    @staticmethod
    def of(value: Any) -> "Response":
        return Response(OK, value)

    @staticmethod
    def raised(exc: BaseException) -> "Response":
        return Response(RAISED, type(exc).__name__)


#: An invocation / a response as the plain tuple of its fields — equal
#: exactly when the dataclass instances are.  A decider hashes and
#: compares both once per configuration (to share model steps, to group
#: successors, to key linearized maps, against the observation), and a
#: tuple does that in C where a frozen dataclass runs Python.  A
#: response's tuple, ``(kind, value)``, is its *answer*: what a model's
#: ``step`` returns, with ``Response(*answer)`` the way back.
plain_invocation = attrgetter(*(f.name for f in fields(Invocation)))
plain_response = attrgetter(*(f.name for f in fields(Response)))

#: Event kinds.
CALL = "call"
RETURN = "return"


@dataclass(frozen=True)
class Event:
    """One call or return event in a history.

    ``op_index`` is the per-thread sequence number of the operation the
    event belongs to; together with ``thread`` it identifies the operation
    (the pair plays the role of the paper's matching-call/return rule,
    made explicit so histories never need to re-derive matches).
    """

    kind: str  #: :data:`CALL` or :data:`RETURN`
    thread: int
    op_index: int
    invocation: Invocation | None = None  #: set on call events
    response: Response | None = None  #: set on return events

    @property
    def is_call(self) -> bool:
        return self.kind == CALL

    @property
    def is_return(self) -> bool:
        return self.kind == RETURN

    def __str__(self) -> str:
        name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[self.thread] if self.thread < 26 else f"T{self.thread}"
        if self.is_call:
            return f"(call {self.invocation} {name})"
        return f"(ret {self.response} {name})"

    @staticmethod
    def call(thread: int, op_index: int, invocation: Invocation) -> "Event":
        return Event(CALL, thread, op_index, invocation=invocation)

    @staticmethod
    def ret(thread: int, op_index: int, response: Response) -> "Event":
        return Event(RETURN, thread, op_index, response=response)


@dataclass(frozen=True)
class Operation:
    """An invocation with its (possibly pending) response inside a history.

    Identified by ``(thread, op_index)``.  ``call_pos`` / ``return_pos``
    are event positions within the owning history; ``return_pos`` is None
    for pending operations.  The paper's bracketed notation
    ``[o i/r t]`` corresponds to ``str(op)``.
    """

    thread: int
    op_index: int
    invocation: Invocation
    response: Response | None
    call_pos: int
    return_pos: int | None

    @property
    def key(self) -> tuple[int, int]:
        """Stable identity of the operation inside its history."""
        return (self.thread, self.op_index)

    @property
    def pending(self) -> bool:
        return self.return_pos is None

    @property
    def complete(self) -> bool:
        return self.return_pos is not None

    def __str__(self) -> str:
        name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[self.thread] if self.thread < 26 else f"T{self.thread}"
        res = "?" if self.response is None else str(self.response)
        return f"[{self.invocation} / {res} @{name}]"
