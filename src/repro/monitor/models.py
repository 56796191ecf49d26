"""Explicit sequential models for the monitoring engine.

The two-phase check never needs a specification — phase 1 synthesizes
one.  The monitoring engine (:mod:`repro.monitor`) is the complement:
when the sequential semantics *is* known, a history can be checked
directly against it, with no serial enumeration at all.  A
:class:`SequentialModel` is that semantics in executable form: a pure
transition function ``step(state, invocation) -> (state, answer)`` over
hashable states (hashability is what makes the Wing–Gong–Lowe
configuration cache of :mod:`repro.monitor.wgl` work), an *answer* being
the response as a plain ``(kind, value)`` tuple
(:func:`repro.core.events.plain_response`).  ``step`` is what a model
implements; ``apply``, the same with a typed ``Response``, is derived.

``step_set(states, invocation)`` is the same transition over a *set* of
states at once: ``{answer: successor states}``, exactly what grouping
``step`` by answer over every state gives, blocked states left out.  The
base class defines it as that loop, so every model has it; a model may
override it with a kernel that steps the whole set in one pass (the
queue's and the stack's do, for the methods the online closure of
:mod:`repro.monitor.incremental` spends its time in).

A queue's states may also be *compact*: a :class:`_Block` element —
k >= 2 distinct values — stands at one position for every order of its
values, so ``(Block{0,1,2,3},)`` is the 24 states that four concurrent
``Enqueue``s can leave.  ``compact(states)`` folds a set that is exactly
such a family into its one compact state (the base class keeps every set
as it is); ``count(states)`` is how many concrete states a set stands
for (``len`` in the base class); ``expand(states)`` yields them.  Only
``step_set`` steps a compact state: the queue's ``TryDequeue`` takes one
answer per value of a head Block, and every other method but
``Enqueue`` expands first.  ``step`` never sees one.  The stack does not
compact: a ``Push`` then a ``TryPop`` of the pushed value leaves a top
Block whole where the other order splits it, so two states of one set
could stand for the same concrete state and the count would be wrong.

``step`` returns ``(state, None)`` when the invocation *blocks* in that
state (e.g. ``dec`` of the counter at zero) — the monitor uses this both
to prune linearization branches and to justify stuck histories.  Unknown
methods raise :class:`ModelError`: a trace mentioning an operation the
model does not speak is a usage error, never a silent PASS.

Models mirror the method names and results of the Table 1 structures
(``repro.structures``) so monitor verdicts are directly comparable with
the observation-backend verdicts on the same histories — the
cross-validation suite in ``tests/monitor`` leans on exactly that.

``partition_key`` is the P-compositionality hook (Horn & Kroening): for
per-key/per-element types it maps an invocation to its cell, or ``None``
for whole-object operations (``Count``, ``Clear``, …) that forbid
partitioning the history.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import factorial
from typing import Any, Collection, Hashable, Iterable

from repro.core.events import OK, RAISED, Invocation, Response

__all__ = [
    "MODELS",
    "CounterModel",
    "DictModel",
    "ModelError",
    "QueueModel",
    "RegisterModel",
    "SequentialModel",
    "SetModel",
    "StackModel",
    "get_model",
]


class ModelError(Exception):
    """An invocation the model cannot interpret (unknown method/arity)."""


def _ok(state: Any, value: Any = None) -> tuple[Any, tuple]:
    return state, (OK, value)


#: The answers of the set kernels: of an update, of a take from nothing.
_OK_NONE = (OK, None)
_OK_FAIL = (OK, "Fail")


class _Block(frozenset):
    """k >= 2 distinct values at one position of a compact queue state,
    standing for every order of them."""

    __slots__ = ()


def _concrete(state: tuple) -> Iterable[tuple]:
    """Every concrete state *state* stands for."""
    if _Block not in map(type, state):
        return (state,)
    orders = [
        permutations(item) if type(item) is _Block else ((item,),)
        for item in state
    ]
    return (tuple(chain.from_iterable(choice)) for choice in product(*orders))


def _appended(model: "SequentialModel", states, invocation) -> dict:
    """``Enqueue`` / ``Push`` over *states*: every state grows by the
    argument, all under one answer."""
    if not states:
        return {}  # nothing stepped, so a missing argument raises nothing
    value = model._arg(invocation)
    return {_OK_NONE: {state + (value,) for state in states}}


def _taken(states, front: bool) -> dict:
    """``TryDequeue`` (from the *front*) / ``TryPop`` (from the back) over
    *states*, one grouping pass: a state answers with the element it
    gives up and moves to the rest; the empty state answers
    ``ok("Fail")`` and stays.  A state whose taken element is ``"Fail"``
    answers the same, so the empty state joins its group rather than
    replacing it.  A Block at the front (only a queue compacts) gives up
    each of its values in turn and keeps the others: two or more stay a
    Block, one is a plain value again."""
    end, rest = (0, slice(1, None)) if front else (-1, slice(None, -1))
    groups: dict = {}
    empty = False
    for state in states:
        if not state:
            empty = True
            continue
        taken = state[end]
        if type(taken) is _Block:
            for value in taken:
                kept = taken - {value}
                kept = (_Block(kept),) if len(kept) > 1 else tuple(kept)
                after = kept + state[1:]
                group = groups.get(value)
                if group is None:
                    groups[value] = {after}
                else:
                    group.add(after)
            continue
        group = groups.get(taken)
        if group is None:
            groups[taken] = {state[rest]}
        else:
            group.add(state[rest])
    answers = {(OK, taken): group for taken, group in groups.items()}
    if empty:
        group = answers.get(_OK_FAIL)
        if group is None:
            answers[_OK_FAIL] = {()}
        else:
            group.add(())
    return answers


class SequentialModel:
    """One deterministic sequential type: state + transition function.

    A model implements :meth:`step`; :meth:`apply` and :meth:`step_set`
    are derived from it, and a model may override :meth:`step_set`, and
    with it :meth:`compact`, :meth:`count` and :meth:`expand`.
    """

    #: registry name (``--model NAME`` on the command line).
    name: str = "abstract"
    #: whether per-key partitioning (P-compositionality) is sound.
    partitionable: bool = False

    def initial_state(self) -> Hashable:
        raise NotImplementedError

    def step(
        self, state: Hashable, invocation: Invocation
    ) -> tuple[Hashable, tuple | None]:
        """Run *invocation* in *state*; a ``None`` answer means it blocks."""
        raise NotImplementedError

    def step_set(
        self, states: Collection[Hashable], invocation: Invocation
    ) -> dict[tuple, set[Hashable]]:
        """:meth:`step` over every state of *states*, grouped by answer.

        This loop is the definition: an override must return equal
        answers as one key (as a dict does: ``ok(1)`` and ``ok(True)``
        are one group), leave blocked states out, raise where the loop
        raises, and hand out fresh sets the caller owns.  A model whose
        :meth:`compact` makes compact states must step them here, to
        successors that stand for what the loop gives on :meth:`expand`.
        """
        groups: dict[tuple, set[Hashable]] = {}
        step = self.step
        for state in states:
            new_state, answer = step(state, invocation)
            if answer is None:
                continue  # the model blocks here
            group = groups.get(answer)
            if group is None:
                groups[answer] = {new_state}
            else:
                group.add(new_state)
        return groups

    def compact(self, states: set[Hashable]) -> set[Hashable]:
        """*states* as fewer states that stand for the same ones, or
        *states* itself; the base class never compacts."""
        return states

    def count(self, states: Collection[Hashable]) -> int:
        """How many concrete states *states* stands for."""
        return len(states)

    def expand(self, states: Collection[Hashable]) -> Iterable[Hashable]:
        """The concrete states *states* stands for."""
        return states

    def apply(
        self, state: Hashable, invocation: Invocation
    ) -> tuple[Hashable, Response | None]:
        """:meth:`step`, the answer as a :class:`Response`."""
        state, answer = self.step(state, invocation)
        return state, None if answer is None else Response(*answer)

    #: the methods that act on one cell, which their first argument names.
    _PER_CELL: frozenset = frozenset()

    def partition_key(self, invocation: Invocation) -> Hashable | None:
        """The cell *invocation* belongs to, or None for global operations."""
        if invocation.method in self._PER_CELL:
            return self._arg(invocation)
        return None

    def _bad(self, invocation: Invocation) -> ModelError:
        return ModelError(
            f"model {self.name!r} does not understand {invocation}"
        )

    def _arg(self, invocation: Invocation, index: int = 0) -> Any:
        try:
            return invocation.args[index]
        except IndexError:
            raise self._bad(invocation) from None


class RegisterModel(SequentialModel):
    """A single atomic cell: ``Write(v)`` / ``Read()`` (any case)."""

    name = "register"

    def __init__(self, initial: Any = None) -> None:
        self._initial = initial

    def initial_state(self) -> Hashable:
        return self._initial

    def step(self, state, invocation):
        method = invocation.method.lower()
        if method == "write":
            return _ok(self._arg(invocation))
        if method == "read" and not invocation.args:
            return _ok(state, state)
        raise self._bad(invocation)


class CounterModel(SequentialModel):
    """The Fig. 3 counter: ``inc``/``get``/``set_value``, blocking ``dec``."""

    name = "counter"

    def initial_state(self) -> Hashable:
        return 0

    def step(self, state, invocation):
        method = invocation.method
        if method == "inc":
            return _ok(state + 1)
        if method == "dec":
            if state == 0:
                return state, None  # dec blocks while the count is zero
            return _ok(state - 1)
        if method == "get":
            return _ok(state, state)
        if method == "set_value":
            return _ok(self._arg(invocation))
        raise self._bad(invocation)


class _SequenceModel(SequentialModel):
    """A queue or a stack: a tuple state that one method appends to and
    one method takes from, a queue's compact states included (module
    docstring)."""

    #: the appending method, the taking method, and whether it takes
    #: from the front (a queue) or the back (a stack).
    _APPEND: str
    _TAKE: str
    _FRONT: bool

    def step_set(self, states, invocation):
        if invocation.method == self._APPEND:
            return _appended(self, states, invocation)
        if invocation.method == self._TAKE:
            return _taken(states, self._FRONT)
        return super().step_set(self.expand(states), invocation)


class QueueModel(_SequenceModel):
    """FIFO queue with the ``ConcurrentQueue`` alphabet (Fig. 1).

    The queue compacts, exactly: ``TryDequeue`` takes a head Block's
    values before anything enqueued after it, whatever the order of the
    two, so the states of one bucket stand for disjoint sets of concrete
    states."""

    name = "queue"
    _APPEND, _TAKE, _FRONT = "Enqueue", "TryDequeue", True

    def initial_state(self) -> Hashable:
        return ()

    def step(self, state, invocation):
        method = invocation.method
        if method == "Enqueue":
            return _ok(state + (self._arg(invocation),))
        if method == "TryDequeue":
            if not state:
                return _ok(state, "Fail")
            return _ok(state[1:], state[0])
        if method == "TryPeek":
            return _ok(state, state[0] if state else "Fail")
        if method == "IsEmpty":
            return _ok(state, not state)
        if method == "Count":
            return _ok(state, len(state))
        if method == "ToArray":
            return _ok(state, state)
        raise self._bad(invocation)

    def compact(self, states):
        """A set of k! states that share a prefix and end in the k!
        orders of k >= 2 distinct plain values becomes the one state
        ``prefix + (Block(values),)``; any other set stays as it is."""
        k = size = 1
        while size < len(states):
            k += 1
            size *= k
        if k < 2 or size != len(states):
            return states
        first = next(iter(states))
        cut = len(first) - k
        if cut < 0:
            return states
        prefix, values = first[:cut], set(first[cut:])
        if len(values) != k:
            return states
        for state in states:
            suffix = state[cut:]
            if (
                len(suffix) != k
                or state[:cut] != prefix
                or _Block in map(type, suffix)
                or set(suffix) != values
            ):
                return states
        return {prefix + (_Block(values),)}

    def count(self, states):
        total = 0
        for state in states:
            if _Block in map(type, state):
                orders = 1
                for item in state:
                    if type(item) is _Block:
                        orders *= factorial(len(item))
                total += orders
            else:
                total += 1
        return total

    def expand(self, states):
        return chain.from_iterable(map(_concrete, states))


class StackModel(_SequenceModel):
    """LIFO stack with the ``ConcurrentStack`` alphabet."""

    name = "stack"
    _APPEND, _TAKE, _FRONT = "Push", "TryPop", False

    def initial_state(self) -> Hashable:
        return ()  # top of the stack is the last element

    def step(self, state, invocation):
        method = invocation.method
        if method == "Push":
            return _ok(state + (self._arg(invocation),))
        if method == "TryPop":
            if not state:
                return _ok(state, "Fail")
            return _ok(state[:-1], state[-1])
        if method == "TryPeek":
            return _ok(state, state[-1] if state else "Fail")
        if method == "Count":
            return _ok(state, len(state))
        if method == "ToArray":
            return _ok(state, tuple(reversed(state)))
        if method == "Clear":
            return _ok(())
        raise self._bad(invocation)


class SetModel(SequentialModel):
    """Mathematical set with the alphabet of the Harris set
    (``tests/structures/lock_free_set.py``).

    Per-element operations (``Insert``/``Remove``/``Contains``) partition
    by the element; ``Size``/``ToArray`` are global.
    """

    name = "set"
    partitionable = True

    _PER_CELL = frozenset({"Insert", "Remove", "Contains"})

    def initial_state(self) -> Hashable:
        return frozenset()

    def step(self, state, invocation):
        method = invocation.method
        if method == "Insert":
            key = self._arg(invocation)
            if key in state:
                return _ok(state, False)
            return _ok(state | {key}, True)
        if method == "Remove":
            key = self._arg(invocation)
            if key not in state:
                return _ok(state, False)
            return _ok(state - {key}, True)
        if method == "Contains":
            return _ok(state, self._arg(invocation) in state)
        if method == "Size":
            return _ok(state, len(state))
        if method == "ToArray":
            return _ok(state, tuple(sorted(state)))
        raise self._bad(invocation)


class DictModel(SequentialModel):
    """Key/value map with the ``ConcurrentDictionary`` alphabet.

    The state is a canonically-sorted tuple of ``(key, value)`` pairs so
    that equal maps hash equally whatever the insertion order.  Per-key
    operations partition by the key; ``Count``/``IsEmpty``/``Clear`` are
    global.  ``TryAdd``/``SetItem``/``TryUpdate`` default the value to
    the key, mirroring the implementation's convention.
    """

    name = "dict"
    partitionable = True

    _PER_CELL = frozenset(
        "TryAdd TryRemove TryGetValue GetItem SetItem TryUpdate ContainsKey".split()
    )

    def initial_state(self) -> Hashable:
        return ()

    @staticmethod
    def _store(state: tuple, key: Any, value: Any) -> tuple:
        pairs = [(k, v) for k, v in state if k != key] + [(key, value)]
        return tuple(sorted(pairs, key=repr))

    @staticmethod
    def _lookup(state: tuple, key: Any) -> tuple[bool, Any]:
        for k, v in state:
            if k == key:
                return True, v
        return False, None

    def _value(self, invocation: Invocation) -> Any:
        value = invocation.args[1] if len(invocation.args) > 1 else None
        return value if value is not None else self._arg(invocation)

    def step(self, state, invocation):
        method = invocation.method
        if method in self._PER_CELL:
            key = self._arg(invocation)
            present, value = self._lookup(state, key)
            if method == "TryAdd":
                if present:
                    return _ok(state, False)
                return _ok(self._store(state, key, self._value(invocation)), True)
            if method == "TryRemove":
                if not present:
                    return _ok(state, "Fail")
                return _ok(tuple(p for p in state if p[0] != key), value)
            if method == "TryGetValue":
                return _ok(state, value if present else "Fail")
            if method == "GetItem":
                if not present:
                    return state, (RAISED, "KeyNotFound")
                return _ok(state, value)
            if method == "SetItem":
                return _ok(self._store(state, key, self._value(invocation)))
            if method == "TryUpdate":
                if not present:
                    return _ok(state, False)
                return _ok(self._store(state, key, self._value(invocation)), True)
            return _ok(state, present)  # ContainsKey
        if method == "Count":
            return _ok(state, len(state))
        if method == "IsEmpty":
            return _ok(state, len(state) == 0)
        if method == "Clear":
            return _ok(())
        raise self._bad(invocation)


#: Registry of the built-in models, by ``--model`` name.
MODELS: dict[str, SequentialModel] = {
    model.name: model
    for model in (
        RegisterModel(),
        CounterModel(),
        QueueModel(),
        StackModel(),
        SetModel(),
        DictModel(),
    )
}


def get_model(name: str) -> SequentialModel:
    """Look up a model by name; raises :class:`ModelError` when unknown."""
    try:
        return MODELS[name]
    except KeyError:
        raise ModelError(
            f"unknown sequential model {name!r} "
            f"(available: {', '.join(sorted(MODELS))})"
        ) from None
