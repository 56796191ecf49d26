"""The state key: what makes two serial states equal, and what it refuses."""

from __future__ import annotations

import pytest

from repro.runtime import Runtime
from repro.runtime.core import SerialDriver
from repro.runtime.statekey import StateKeyRefused, state_key


@pytest.fixture
def rt():
    return Runtime(SerialDriver())


class Holder:
    def __init__(self, *values):
        self.values = list(values)


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a = a


def plain_function():
    return 42


def closure():
    captured = Holder()
    return lambda: captured


def test_scalars_are_keyed_by_exact_type():
    keys = {state_key(Holder(value)) for value in (1, True, 1.0, "1", None)}
    assert len(keys) == 5
    assert state_key(Holder(0.0)) != state_key(Holder(-0.0))
    assert state_key(Holder(1)) == state_key(Holder(1))


def test_cells_are_read_without_instrumentation(rt):
    first, second = rt.volatile(7, "x"), rt.atomic(7, "y")
    assert state_key(Holder(first)) != state_key(Holder(second))  # the class counts
    assert state_key(Holder(first)) == state_key(Holder(rt.volatile(7, "z")))
    assert state_key(Holder(first)) != state_key(Holder(rt.volatile(8, "x")))
    lock = rt.lock()
    before = state_key(Holder(lock))
    lock._owner = 0
    assert state_key(Holder(lock)) != before


def test_only_a_primitive_skips_its_name(rt):
    assert state_key(Holder(rt.volatile(1, "a"))) == state_key(
        Holder(rt.volatile(1, "b"))
    )
    named, renamed = Holder(), Holder()
    named.name, renamed.name = "a", "b"
    assert state_key(named) != state_key(renamed)


def test_sharing_is_part_of_the_key():
    shared = Holder(1)
    assert state_key(Holder(shared, shared)) != state_key(Holder(shared, Holder(1)))


def test_slots_and_unset_slots():
    assert state_key(Slotted(1)) == state_key(Slotted(1))
    assert state_key(Slotted(1)) != state_key(Slotted(2))
    full = Slotted(1)
    full.b = None
    assert state_key(full) != state_key(Slotted(1))


def test_the_runtime_is_a_marker_and_a_plain_function_is_code(rt):
    assert state_key(Holder(rt)) == state_key(Holder(Runtime(SerialDriver())))
    assert state_key(Holder(plain_function)) == state_key(Holder(plain_function))


@pytest.mark.parametrize(
    "value,reason",
    [
        (closure(), "a closure"),
        ({1, 2}, "a set"),
        ((x for x in ()), "a generator"),
        (len, "a callable"),
        (Holder, "a callable"),
        (object(), "neither __dict__ nor __slots__"),
        ({Holder(): 1}, "a dict key is not a plain value"),
    ],
    ids=["closure", "set", "generator", "builtin", "class", "object", "dict-key"],
)
def test_what_the_walk_cannot_see_through_is_refused(value, reason):
    with pytest.raises(StateKeyRefused, match=reason):
        state_key(Holder(value))


def test_a_state_too_deep_to_walk_is_refused():
    chain = None
    for _ in range(5000):
        chain = Holder(chain)
    with pytest.raises(StateKeyRefused, match="nested too deeply"):
        state_key(chain)
