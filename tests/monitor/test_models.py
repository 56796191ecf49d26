"""Sequential semantics of the explicit models (repro.monitor.models)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Invocation, Response, plain_response
from repro.monitor import MODELS, ModelError, get_model
from repro.monitor.models import SequentialModel


def run(model, *invocations):
    """Apply *invocations* in order from the initial state; collect responses."""
    state = model.initial_state()
    responses = []
    for invocation in invocations:
        state, response = model.apply(state, invocation)
        responses.append(response)
    return state, responses


def inv(method, *args):
    return Invocation(method, args)


class TestRegistry:
    def test_all_models_registered(self):
        assert tuple(sorted(MODELS)) == (
            "counter", "dict", "queue", "register", "set", "stack",
        )

    def test_get_model_unknown_raises(self):
        with pytest.raises(ModelError, match="unknown sequential model"):
            get_model("deque")

    def test_initial_states_are_hashable(self):
        for model in MODELS.values():
            hash(model.initial_state())

    def test_unknown_method_raises_not_passes(self):
        for model in MODELS.values():
            with pytest.raises(ModelError):
                model.apply(model.initial_state(), inv("Frobnicate"))


class TestQueue:
    def test_fifo(self):
        _, responses = run(
            get_model("queue"),
            inv("Enqueue", 1), inv("Enqueue", 2),
            inv("TryDequeue"), inv("TryDequeue"), inv("TryDequeue"),
        )
        assert [r.value for r in responses] == [None, None, 1, 2, "Fail"]

    def test_snapshots(self):
        _, responses = run(
            get_model("queue"),
            inv("IsEmpty"), inv("Enqueue", 7), inv("TryPeek"),
            inv("Count"), inv("ToArray"), inv("IsEmpty"),
        )
        assert [r.value for r in responses] == [True, None, 7, 1, (7,), False]

    def test_not_partitionable(self):
        model = get_model("queue")
        assert not model.partitionable
        assert model.partition_key(inv("Enqueue", 1)) is None


class TestStack:
    def test_lifo_and_to_array_top_first(self):
        _, responses = run(
            get_model("stack"),
            inv("Push", 1), inv("Push", 2), inv("ToArray"),
            inv("TryPop"), inv("TryPeek"), inv("Count"),
        )
        assert [r.value for r in responses] == [None, None, (2, 1), 2, 1, 1]

    def test_empty_pops_fail_and_clear(self):
        _, responses = run(
            get_model("stack"),
            inv("TryPop"), inv("Push", 5), inv("Clear"), inv("TryPeek"),
        )
        assert [r.value for r in responses] == ["Fail", None, None, "Fail"]


class TestCounter:
    def test_inc_get_set(self):
        _, responses = run(
            get_model("counter"),
            inv("inc"), inv("inc"), inv("get"), inv("set_value", 9), inv("get"),
        )
        assert [r.value for r in responses] == [None, None, 2, None, 9]

    def test_dec_blocks_at_zero(self):
        model = get_model("counter")
        state, response = model.apply(model.initial_state(), inv("dec"))
        assert response is None  # dec blocks while the count is zero
        assert state == 0
        state, _ = model.apply(0, inv("inc"))
        _, response = model.apply(state, inv("dec"))
        assert response == Response.of(None)


class TestRegister:
    def test_read_write_case_insensitive(self):
        _, responses = run(
            get_model("register"),
            inv("Read"), inv("write", 3), inv("READ"),
        )
        assert [r.value for r in responses] == [None, None, 3]


class TestSet:
    def test_insert_remove_contains(self):
        _, responses = run(
            get_model("set"),
            inv("Insert", 1), inv("Insert", 1), inv("Contains", 1),
            inv("Remove", 1), inv("Remove", 1), inv("Contains", 1),
        )
        assert [r.value for r in responses] == [True, False, True, True, False, False]

    def test_global_ops(self):
        _, responses = run(
            get_model("set"), inv("Insert", 2), inv("Insert", 1),
            inv("Size"), inv("ToArray"),
        )
        assert [r.value for r in responses] == [True, True, 2, (1, 2)]

    def test_partition_keys(self):
        model = get_model("set")
        assert model.partitionable
        assert model.partition_key(inv("Insert", 7)) == 7
        assert model.partition_key(inv("Contains", 7)) == 7
        assert model.partition_key(inv("Size")) is None


class TestDict:
    def test_per_key_operations(self):
        _, responses = run(
            get_model("dict"),
            inv("TryAdd", "k", 1), inv("TryAdd", "k", 2),
            inv("TryGetValue", "k"), inv("TryUpdate", "k", 3),
            inv("GetItem", "k"), inv("TryRemove", "k"),
            inv("TryRemove", "k"), inv("TryGetValue", "k"),
        )
        assert [r.value for r in responses] == [
            True, False, 1, True, 3, 3, "Fail", "Fail",
        ]

    def test_get_item_missing_raises(self):
        model = get_model("dict")
        _, response = model.apply(model.initial_state(), inv("GetItem", "k"))
        assert response == Response("raised", "KeyNotFound")

    def test_value_defaults_to_key(self):
        _, responses = run(
            get_model("dict"), inv("TryAdd", "k"), inv("GetItem", "k"),
        )
        assert responses[1].value == "k"

    def test_state_canonical_whatever_insertion_order(self):
        model = get_model("dict")
        ab, _ = run(model, inv("TryAdd", "a", 1), inv("TryAdd", "b", 2))
        ba, _ = run(model, inv("TryAdd", "b", 2), inv("TryAdd", "a", 1))
        assert ab == ba and hash(ab) == hash(ba)

    def test_global_ops(self):
        _, responses = run(
            get_model("dict"),
            inv("TryAdd", "a"), inv("Count"), inv("IsEmpty"),
            inv("Clear"), inv("IsEmpty"),
        )
        assert [r.value for r in responses] == [True, 1, False, None, True]

    def test_partition_keys(self):
        model = get_model("dict")
        assert model.partition_key(inv("TryAdd", "k", 5)) == "k"
        assert model.partition_key(inv("Count")) is None
        assert model.partition_key(inv("Clear")) is None


# -- the model contract: ``step`` is the transition, ``apply`` is derived --------

#: An invocation per model that names a known method with too few (or,
#: for the register's ``read``, too many) arguments.
WRONG_ARITY = {
    "register": [inv("write"), inv("read", 1)],
    "counter": [inv("set_value")],
    "queue": [inv("Enqueue")],
    "stack": [inv("Push")],
    "set": [inv("Insert"), inv("Contains")],
    "dict": [inv("TryAdd"), inv("GetItem")],
}


def outcome(call, *args):
    """What *call* returned, or the text of the ModelError it raised."""
    try:
        return call(*args)
    except ModelError as exc:
        return f"ModelError: {exc}"


@pytest.mark.parametrize("name", sorted(MODELS))
def test_apply_is_step_with_a_typed_response(name):
    from tests.stream.test_closure_oracle import ALPHABETS

    assert sorted(WRONG_ARITY) == sorted(ALPHABETS) == sorted(MODELS)
    model = get_model(name)
    rng = random.Random(name)
    hostile = WRONG_ARITY[name] + [inv("Frobnicate"), inv("Frobnicate", 1)]
    seen = {"ok": 0, "blocks": 0, "error": 0}
    for _walk in range(60):
        state = model.initial_state()
        for _step in range(10):
            if rng.random() < 0.2:
                invocation = rng.choice(hostile)
            else:
                method, values = rng.choice(ALPHABETS[name])
                args = () if values is None else (rng.choice(values),)
                invocation = Invocation(method, args)
            cell = outcome(model.partition_key, invocation)
            stepped = outcome(model.step, state, invocation)
            applied = outcome(model.apply, state, invocation)
            # Stepping is pure: it moves neither the routing nor itself.
            assert outcome(model.partition_key, invocation) == cell
            assert outcome(model.step, state, invocation) == stepped
            if isinstance(stepped, str):
                assert applied == stepped  # the same ModelError text
                assert str(invocation) in stepped
                seen["error"] += 1
                continue
            new_state, answer = stepped
            hash(new_state)
            if answer is None:
                assert applied == (new_state, None)
                assert new_state == state  # a blocked operation has no effect
                seen["blocks"] += 1
            else:
                kind, _value = answer
                assert type(answer) is tuple and kind in ("ok", "raised")
                assert applied == (new_state, Response(*answer))
                assert plain_response(applied[1]) == answer
                seen["ok"] += 1
            if not model.partitionable:
                assert cell is None
            elif invocation.args and cell is not None:
                assert cell == invocation.args[0]
            state = new_state
    assert seen["ok"] and seen["error"]
    assert bool(seen["blocks"]) == (name == "counter")


def test_apply_is_written_once():
    # One implementation of each model's semantics: only the base class
    # turns an answer into a Response.
    assert all("apply" not in vars(type(model)) for model in MODELS.values())


# -- ``step_set`` is ``step`` over a set of states, grouped by answer ------------

#: Every method of every model, with the number of arguments it takes.
METHODS = {
    "register": {"write": 1, "read": 0},
    "counter": {"inc": 0, "dec": 0, "get": 0, "set_value": 1},
    "queue": {
        "Enqueue": 1, "TryDequeue": 0, "TryPeek": 0, "IsEmpty": 0,
        "Count": 0, "ToArray": 0,
    },
    "stack": {
        "Push": 1, "TryPop": 0, "TryPeek": 0, "Count": 0, "ToArray": 0,
        "Clear": 0,
    },
    "set": {"Insert": 1, "Remove": 1, "Contains": 1, "Size": 0, "ToArray": 0},
    "dict": {
        "TryAdd": 1, "TryRemove": 1, "TryGetValue": 1, "GetItem": 1,
        "SetItem": 2, "TryUpdate": 2, "ContainsKey": 1, "Count": 0,
        "IsEmpty": 0, "Clear": 0,
    },
}

#: Argument values: ``"Fail"`` is also what a take from nothing answers,
#: ``1`` and ``True`` are equal, ``0`` is where the counter's ``dec`` blocks.
#: The counter counts and the set sorts, so they take numbers only.
VALUES = [0, 1, True, 2, "Fail"]
NUMBERS_ONLY = {"counter", "set"}


def values_of(name):
    return st.sampled_from(VALUES[:-1] if name in NUMBERS_ONLY else VALUES)


def states_of(name):
    """Any state of the model *name*, its initial one half the time."""
    values = values_of(name)
    if name in ("queue", "stack"):
        some = st.lists(values, max_size=4).map(tuple)
    elif name == "counter":
        some = st.integers(0, 3)
    elif name == "register":
        some = values
    elif name == "set":
        some = st.frozensets(values, max_size=3)
    else:  # dict: canonically sorted (key, value) pairs
        some = st.dictionaries(values, values, max_size=3).map(
            lambda pairs: tuple(sorted(pairs.items(), key=repr))
        )
    return st.one_of(st.just(get_model(name).initial_state()), some)


def base_step_set(model, states, invocation):
    return SequentialModel.step_set(model, states, invocation)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_step_set_is_the_base_loop(name, data):
    assert sorted(METHODS) == sorted(MODELS)
    model = get_model(name)
    states = data.draw(st.sets(states_of(name), max_size=8), label="states")
    snapshot = set(states)
    # Every method of the alphabet, then the malformed invocations.
    wellformed = [
        Invocation(method, data.draw(st.tuples(*[values_of(name)] * arity)))
        for method, arity in sorted(METHODS[name].items())
    ]
    for invocation in wellformed + WRONG_ARITY[name] + [inv("Frobnicate")]:
        got = outcome(model.step_set, states, invocation)
        want = outcome(base_step_set, model, states, invocation)
        # Equal answers are one key, and every group is the same set.
        assert got == want, invocation
        assert states == snapshot
        if invocation not in wellformed:
            # Only a state to step makes a ModelError.
            assert isinstance(got, str) == bool(states)
        if isinstance(got, str):
            continue
        assert None not in got  # blocked states are left out
        # Fresh sets: mutating one reaches neither the input nor another
        # call's.
        assert all(group is not states for group in got.values())
        for group in got.values():
            group.add(("not", "a", "state"))
        assert states == snapshot
        assert model.step_set(states, invocation) == want


@pytest.mark.parametrize(
    "name, take, states",
    [
        ("queue", "TryDequeue", {(), ("Fail", 1), (True, 2), (1, 3)}),
        ("stack", "TryPop", {(), (1, "Fail"), (2, True), (3, 1)}),
    ],
)
def test_take_from_nothing_joins_an_equal_answer(name, take, states):
    # The empty state and a state that gives up "Fail" answer alike, and
    # True and 1 too: two answers, not three or four.
    assert get_model(name).step_set(states, inv(take)) == {
        ("ok", "Fail"): {(), (1,)},
        ("ok", 1): {(2,), (3,)},
    }


# -- compact states: what a queue's state set stands for -------------------------


def folded(name, values):
    """The one compact state the k! orders of *values* fold into."""
    (state,) = get_model(name).compact(set(itertools.permutations(values)))
    return state


def compact_states_of(name):
    """A queue state that may hold Blocks: plain values and Blocks of
    two or three values distinct by ``==``, in any order."""
    item = st.one_of(
        values_of(name).map(lambda value: (value,)),
        st.frozensets(values_of(name), min_size=2, max_size=3).map(
            lambda values: folded(name, values)
        ),
    )
    return st.lists(item, max_size=3).map(lambda items: sum(items, ()))


@pytest.mark.parametrize("name", ["queue"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_step_set_on_compact_states_is_the_loop_on_what_they_stand_for(name, data):
    model = get_model(name)
    states = data.draw(st.sets(compact_states_of(name), max_size=6), label="states")
    concrete = list(model.expand(states))
    assert model.count(states) == len(concrete)
    for method, arity in sorted(METHODS[name].items()):
        invocation = Invocation(method, data.draw(st.tuples(*[values_of(name)] * arity)))
        got = model.step_set(states, invocation)
        want = base_step_set(model, set(concrete), invocation)
        assert {answer: set(model.expand(group)) for answer, group in got.items()} == want
        if method in ("Enqueue", "TryDequeue"):
            # The kernels step compact states without expanding them: a
            # state gives at most one successor per value of its Block.
            assert sum(map(len, got.values())) <= max(len(states), 1) * 3


def test_compact_folds_exactly_every_order():
    model = get_model("queue")
    orders = {(9, *order) for order in itertools.permutations((1, 2, 3))}
    (state,) = model.compact(orders)
    assert state[0] == 9 and len(state) == 2
    assert set(model.expand({state})) == orders and model.count({state}) == 6
    # Anything short of every order, or values that are not distinct,
    # stays as it is.
    for kept in (
        orders - {(9, 1, 2, 3)},
        {(1, 1, 2), (1, 2, 1), (2, 1, 1)},
        {(0, 1, 2), (5, 2, 1)},
        {(1, 2), (2, 1, 0)},
    ):
        assert model.compact(kept) is kept
    # The base class never compacts and counts with len.
    assert SequentialModel.compact(model, orders) is orders
    assert SequentialModel.count(model, orders) == 6


def test_the_stack_never_compacts():
    # A Push then a TryPop of the pushed value would leave a top Block
    # whole where the other order splits it: not exact, so not done.
    model = get_model("stack")
    orders = set(itertools.permutations((1, 2, 3)))
    assert model.compact(orders) is orders
    assert model.count(orders) == 6
