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

from typing import Any, Hashable

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
    "model_names",
]


class ModelError(Exception):
    """An invocation the model cannot interpret (unknown method/arity)."""


def _ok(state: Any, value: Any = None) -> tuple[Any, tuple]:
    return state, (OK, value)


class SequentialModel:
    """One deterministic sequential type: state + transition function.

    A model implements :meth:`step`; :meth:`apply` is derived from it.
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


class QueueModel(SequentialModel):
    """FIFO queue with the ``ConcurrentQueue`` alphabet (Fig. 1)."""

    name = "queue"

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


class StackModel(SequentialModel):
    """LIFO stack with the ``ConcurrentStack`` alphabet."""

    name = "stack"

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
    """Mathematical set with the ``LockFreeSet`` alphabet.

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


def model_names() -> tuple[str, ...]:
    return tuple(sorted(MODELS))


def get_model(name: str) -> SequentialModel:
    """Look up a model by name; raises :class:`ModelError` when unknown."""
    try:
        return MODELS[name]
    except KeyError:
        raise ModelError(
            f"unknown sequential model {name!r} "
            f"(available: {', '.join(model_names())})"
        ) from None
