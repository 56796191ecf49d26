"""The state key of an object under test: a canonical walk of what it holds.

Phase 1 explores serial executions by state (:mod:`repro.core.phase1`):
two operation boundaries with equal thread positions and equal object
state have equal futures, so the second one need not run.  This module
says what "equal object state" means.  :func:`state_key` walks the object
the test's factory returned and flattens everything reachable from it into
one hashable tuple:

* cells and locks are read without instrumentation — a cell's ``_value``,
  a container's ``_items``, a lock's ``_owner``, a monitor's waiters — by
  walking their instance state like any other object's.  No ``get()``, no
  access record, no scheduling point;
* instances (``__dict__`` in insertion order, then ``__slots__``), tuples,
  lists and dicts (in insertion order) are walked field by field;
* plain scalars are keyed by exact type and value: ``1``, ``True`` and
  ``1.0`` are three keys (floats by ``repr``, so ``-0.0`` is not ``0.0``);
* a mutable object reached a second time is a reference to the number it
  got on its first visit, so aliasing is part of the key;
* a cell's or lock's ``location``, ``uid``, ``name`` and ``_scheduler``
  are skipped (identity and bookkeeping, never behaviour), and the
  :class:`~repro.runtime.env.Runtime` and its scheduler are one marker;
* a plain function — no closure, no defaults that are not plain values, no
  attributes — is code, keyed by identity.

The walk is complete or it refuses: :class:`StateKeyRefused` names what it
cannot see through — any other callable (a closure holds state the walk
cannot reach), a generator, a set (its order is not a function of its
contents), a dict key that is not a plain value, an object with neither
``__dict__`` nor ``__slots__`` that is not a plain value, one whose
class keeps state in a built-in base, or a state nested deeper than the
interpreter's recursion limit.  State the future may depend on
must be reachable from the object; module globals are outside the
contract, as they are for stateless replay.
"""

from __future__ import annotations

import enum
import types
from typing import Any

from repro.runtime.core import SchedulerCore
from repro.runtime.env import Runtime
from repro.runtime.memory import _Location

__all__ = ["StateKeyRefused", "state_key"]


class StateKeyRefused(Exception):
    """The object holds state the walk cannot key; the message says what."""


#: Scalars keyed by exact type and value.
_PLAIN = frozenset({int, bool, str, bytes, type(None)})
#: Scalars keyed by exact type and ``repr`` (``0.0 == -0.0``).
_BY_REPR = frozenset({float, complex})
#: Attributes that name or number a location, or bind it to its scheduler.
_BOOKKEEPING = frozenset({"location", "uid", "name", "_scheduler"})
#: Py_TPFLAGS_HEAPTYPE: set on classes defined by a ``class`` statement.
_HEAP_TYPE = 1 << 9


#: Tokens no user value is equal to.
_REF, _RUNTIME, _FUNCTION, _END, _UNSET = (object() for _ in range(5))

#: Per class: what :func:`_layout` says.
_LAYOUTS: dict[type, tuple[tuple[str, ...], bool, frozenset] | str] = {}


def state_key(root: Any) -> tuple:
    """The canonical, hashable flattening of everything *root* holds.

    Raises :class:`StateKeyRefused` when some reachable state cannot be
    keyed completely.
    """
    out: list = []
    try:
        _walk(root, out, {})
    except RecursionError:
        raise StateKeyRefused("the state is nested too deeply to walk") from None
    return tuple(out)


def _walk(value: Any, out: list, seen: dict[int, int]) -> None:
    cls = value.__class__
    if cls in _PLAIN:
        out += (cls, value)
    elif cls in _BY_REPR:
        out += (cls, repr(value))
    elif cls is tuple:
        out += (tuple, len(value))
        _items(value, out, seen)
    elif id(value) in seen:
        out += (_REF, seen[id(value)])
    else:
        seen[id(value)] = len(seen)
        if cls is list:
            out += (list, len(value))
            _items(value, out, seen)
        elif cls is dict:
            out += (dict, len(value))
            for key, item in value.items():
                out.append(_plain_key(key))
                _walk(item, out, seen)
        elif isinstance(value, (Runtime, SchedulerCore)):
            out.append(_RUNTIME)
        elif cls is types.FunctionType:
            _function(value, out)
        elif isinstance(value, enum.Enum):
            out += (cls, value._name_)
        else:
            _instance(value, cls, out, seen)


def _items(items: Any, out: list, seen: dict[int, int]) -> None:
    for item in items:
        kind = item.__class__
        if kind in _PLAIN:
            out += (kind, item)
        else:
            _walk(item, out, seen)


def _instance(value: Any, cls: type, out: list, seen: dict[int, int]) -> None:
    layout = _LAYOUTS.get(cls)
    if layout is None:
        layout = _LAYOUTS[cls] = _layout(cls)
    if isinstance(layout, str):
        raise StateKeyRefused(layout)
    slots, exception, skipped = layout
    fields = getattr(value, "__dict__", None)
    if fields is None and not slots and not exception:
        raise StateKeyRefused(
            f"a {cls.__qualname__} has neither __dict__ nor __slots__"
        )
    out.append(cls)
    if exception:
        _walk(value.args, out, seen)
    if fields:
        for name, item in fields.items():
            if name in skipped:
                continue
            kind = item.__class__
            if kind in _PLAIN:
                out += (name, kind, item)
            else:
                out.append(name)
                _walk(item, out, seen)
    for name in slots:
        item = getattr(value, name, _UNSET)
        if item is _UNSET:
            out += (name, _UNSET)
        else:
            out.append(name)
            _walk(item, out, seen)
    out.append(_END)


def _layout(cls: type) -> tuple[tuple[str, ...], bool, frozenset] | str:
    """The slot names of *cls*'s instances, whether they are exceptions
    (whose ``args`` are state) and the attributes to skip, or why the walk
    refuses them."""
    if cls is types.GeneratorType or cls is types.CoroutineType:
        return "a generator is stored in the state"
    if cls is set or cls is frozenset:
        return "a set is stored in the state (its order is not its contents)"
    if any("__call__" in klass.__dict__ for klass in cls.__mro__):
        return f"a callable ({cls.__qualname__}) is stored in the state"
    skipped = _BOOKKEEPING if issubclass(cls, _Location) else frozenset()
    names: list[str] = []
    for klass in cls.__mro__:
        if klass is object:
            continue
        if not klass.__flags__ & _HEAP_TYPE and not issubclass(klass, BaseException):
            return (
                f"a {cls.__qualname__} keeps state in the built-in "
                f"{klass.__qualname__}"
            )
        slots = klass.__dict__.get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if slot in ("__dict__", "__weakref__") or slot in skipped:
                continue
            if slot.startswith("__") and not slot.endswith("__"):
                slot = f"_{klass.__name__.lstrip('_')}{slot}"
            names.append(slot)
    return tuple(names), issubclass(cls, BaseException), skipped


def _function(fn: types.FunctionType, out: list) -> None:
    if fn.__closure__:
        raise StateKeyRefused(
            f"a closure ({fn.__qualname__}) is stored in the state"
        )
    defaults = (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values())
    if fn.__dict__ or any(
        d.__class__ not in _PLAIN and d.__class__ not in _BY_REPR for d in defaults
    ):
        raise StateKeyRefused(
            f"a function with state ({fn.__qualname__}) is stored in the state"
        )
    out.append(_FUNCTION)
    out.append(fn)


def _plain_key(key: Any) -> Any:
    """A dict key by exact type, element-wise for tuples."""
    cls = key.__class__
    if cls in _PLAIN:
        return cls, key
    if cls is tuple:
        return tuple(map(_plain_key, key))
    raise StateKeyRefused(f"a dict key is not a plain value ({cls.__qualname__})")
