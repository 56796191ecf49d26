"""Model-based testing: random scripts vs pure-Python reference models.

For every ported structure, hypothesis generates random *sequential*
scripts; the structure (run single-threaded under the scheduler) must
agree step for step with a trivial reference model.  Both vintages are
covered — the seeded defects are interference bugs, so sequentially the
pre versions must be indistinguishable from beta.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import inv, run_sequential

from repro.runtime import Scheduler
from repro.structures import (
    ConcurrentDictionary,
    ConcurrentLinkedList,
    ConcurrentQueue,
    ConcurrentStack,
    SemaphoreSlim,
    TaskCompletionSource,
)
from tests.structures.lock_free_set import LockFreeSet


@pytest.fixture(scope="module")
def module_scheduler():
    scheduler = Scheduler()
    yield scheduler
    scheduler.shutdown()


def run_script(scheduler, factory, script):
    return [r.value for r in run_sequential(scheduler, factory, script)]


versions = st.sampled_from(["pre", "beta"])


# -- queue ---------------------------------------------------------------

queue_ops = st.lists(
    st.sampled_from(
        [inv("Enqueue", 1), inv("Enqueue", 2), inv("TryDequeue"),
         inv("TryPeek"), inv("Count"), inv("IsEmpty"), inv("ToArray")]
    ),
    min_size=1,
    max_size=8,
)


class QueueModel:
    def __init__(self):
        self.items = deque()

    def apply(self, op):
        if op.method == "Enqueue":
            self.items.append(op.args[0])
            return None
        if op.method == "TryDequeue":
            return self.items.popleft() if self.items else "Fail"
        if op.method == "TryPeek":
            return self.items[0] if self.items else "Fail"
        if op.method == "Count":
            return len(self.items)
        if op.method == "IsEmpty":
            return not self.items
        return tuple(self.items)  # ToArray


@given(script=queue_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_queue_matches_model(module_scheduler, script, version):
    model = QueueModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: ConcurrentQueue(rt, version), script
    )
    assert actual == expected


# -- stack ---------------------------------------------------------------

stack_ops = st.lists(
    st.sampled_from(
        [inv("Push", 1), inv("Push", 2), inv("PushRange", 3, 4), inv("TryPop"),
         inv("TryPopRange", 2), inv("TryPeek"), inv("Count"), inv("ToArray"),
         inv("Clear")]
    ),
    min_size=1,
    max_size=8,
)


class StackModel:
    def __init__(self):
        self.items: list = []  # top is the end

    def apply(self, op):
        if op.method == "Push":
            self.items.append(op.args[0])
            return None
        if op.method == "PushRange":
            self.items.extend(op.args)
            return None
        if op.method == "TryPop":
            return self.items.pop() if self.items else "Fail"
        if op.method == "TryPopRange":
            taken = []
            for _ in range(op.args[0]):
                if not self.items:
                    break
                taken.append(self.items.pop())
            return tuple(taken)
        if op.method == "TryPeek":
            return self.items[-1] if self.items else "Fail"
        if op.method == "Count":
            return len(self.items)
        if op.method == "Clear":
            self.items.clear()
            return None
        return tuple(reversed(self.items))  # ToArray, top first


@given(script=stack_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_stack_matches_model(module_scheduler, script, version):
    model = StackModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: ConcurrentStack(rt, version), script
    )
    assert actual == expected


# -- dictionary ------------------------------------------------------------

dict_ops = st.lists(
    st.sampled_from(
        [inv("TryAdd", 10), inv("TryAdd", 21), inv("TryRemove", 10),
         inv("TryRemove", 21), inv("ContainsKey", 10), inv("TryGetValue", 21),
         inv("Count"), inv("IsEmpty"), inv("Clear"), inv("SetItem", 10),
         inv("TryUpdate", 21)]
    ),
    min_size=1,
    max_size=8,
)


class DictModel:
    def __init__(self):
        self.items: dict = {}

    def apply(self, op):
        method = op.method
        if method == "TryAdd":
            key = op.args[0]
            if key in self.items:
                return False
            self.items[key] = key
            return True
        if method == "TryRemove":
            return self.items.pop(op.args[0], "Fail")
        if method == "ContainsKey":
            return op.args[0] in self.items
        if method == "TryGetValue":
            return self.items.get(op.args[0], "Fail")
        if method == "Count":
            return len(self.items)
        if method == "IsEmpty":
            return not self.items
        if method == "Clear":
            self.items.clear()
            return None
        if method == "SetItem":
            self.items[op.args[0]] = op.args[0]
            return None
        if method == "TryUpdate":
            if op.args[0] in self.items:
                self.items[op.args[0]] = op.args[0]
                return True
            return False
        raise AssertionError(method)


@given(script=dict_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_dictionary_matches_model(module_scheduler, script, version):
    model = DictModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: ConcurrentDictionary(rt, version), script
    )
    assert actual == expected


# -- linked list ------------------------------------------------------------

list_ops = st.lists(
    st.sampled_from(
        [inv("AddFirst", 1), inv("AddLast", 2), inv("RemoveFirst"),
         inv("RemoveLast"), inv("Remove", 1), inv("Count"), inv("ToArray")]
    ),
    min_size=1,
    max_size=8,
)


class ListModel:
    def __init__(self):
        self.items: list = []

    def apply(self, op):
        if op.method == "AddFirst":
            self.items.insert(0, op.args[0])
            return None
        if op.method == "AddLast":
            self.items.append(op.args[0])
            return None
        if op.method == "RemoveFirst":
            return self.items.pop(0) if self.items else "Fail"
        if op.method == "RemoveLast":
            return self.items.pop() if self.items else "Fail"
        if op.method == "Remove":
            if op.args[0] in self.items:
                self.items.remove(op.args[0])
                return True
            return False
        if op.method == "Count":
            return len(self.items)
        return tuple(self.items)


@given(script=list_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_linked_list_matches_model(module_scheduler, script, version):
    model = ListModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: ConcurrentLinkedList(rt, version), script
    )
    assert actual == expected


# -- lock-free set ------------------------------------------------------------

set_ops = st.lists(
    st.sampled_from(
        [inv("Insert", 1), inv("Insert", 2), inv("Insert", 3),
         inv("Remove", 1), inv("Remove", 2), inv("Contains", 1),
         inv("Contains", 3), inv("ToArray"), inv("Size")]
    ),
    min_size=1,
    max_size=8,
)


class SetModel:
    def __init__(self):
        self.items: set = set()

    def apply(self, op):
        if op.method == "Insert":
            if op.args[0] in self.items:
                return False
            self.items.add(op.args[0])
            return True
        if op.method == "Remove":
            if op.args[0] in self.items:
                self.items.discard(op.args[0])
                return True
            return False
        if op.method == "Contains":
            return op.args[0] in self.items
        if op.method == "Size":
            return len(self.items)
        return tuple(sorted(self.items))  # ToArray


@given(script=set_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_lock_free_set_matches_model(module_scheduler, script, version):
    model = SetModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: LockFreeSet(rt, version), script
    )
    assert actual == expected


# -- semaphore (non-blocking subset) ---------------------------------------

semaphore_ops = st.lists(
    st.sampled_from(
        [inv("WaitZero"), inv("Release"), inv("Release", 2), inv("CurrentCount")]
    ),
    min_size=1,
    max_size=8,
)


class SemaphoreModel:
    def __init__(self, initial=1):
        self.count = initial

    def apply(self, op):
        if op.method == "WaitZero":
            if self.count > 0:
                self.count -= 1
                return True
            return False
        if op.method == "Release":
            n = op.args[0] if op.args else 1
            previous = self.count
            self.count += n
            return previous
        return self.count


@given(script=semaphore_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_semaphore_matches_model(module_scheduler, script, version):
    model = SemaphoreModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: SemaphoreSlim(rt, version), script
    )
    assert actual == expected


# -- task completion source ---------------------------------------------------

tcs_ops = st.lists(
    st.sampled_from(
        [inv("TrySetResult", 1), inv("TrySetResult", 2), inv("TrySetCanceled"),
         inv("TrySetException"), inv("TryResult"), inv("Exception")]
    ),
    min_size=1,
    max_size=8,
)


class TcsModel:
    def __init__(self):
        self.state = ("pending", None)

    def apply(self, op):
        if op.method.startswith("TrySet"):
            if self.state[0] != "pending":
                return False
            if op.method == "TrySetResult":
                self.state = ("result", op.args[0])
            elif op.method == "TrySetCanceled":
                self.state = ("canceled", None)
            else:
                self.state = ("exception", "boom")
            return True
        if op.method == "TryResult":
            return self.state[1] if self.state[0] == "result" else "Fail"
        return self.state[1] if self.state[0] == "exception" else None


@given(script=tcs_ops, version=versions)
@settings(max_examples=60, deadline=None)
def test_tcs_matches_model(module_scheduler, script, version):
    model = TcsModel()
    expected = [model.apply(op) for op in script]
    actual = run_script(
        module_scheduler, lambda rt: TaskCompletionSource(rt, version), script
    )
    assert actual == expected
