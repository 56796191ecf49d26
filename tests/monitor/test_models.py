"""Sequential semantics of the explicit models (repro.monitor.models)."""

from __future__ import annotations

import random

import pytest

from repro.core.events import Invocation, Response, plain_response
from repro.monitor import MODELS, ModelError, get_model, model_names


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
        assert model_names() == (
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


@pytest.mark.parametrize("name", model_names())
def test_apply_is_step_with_a_typed_response(name):
    from tests.stream.test_closure_oracle import ALPHABETS

    assert sorted(WRONG_ARITY) == sorted(ALPHABETS) == list(model_names())
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
                method, arg_range = rng.choice(ALPHABETS[name])
                args = () if arg_range is None else (rng.randrange(arg_range),)
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
