"""Phase 1 stores its specification once per distinct step.

Counts, not timing: the serial histories of one test share their steps
(and with them their tokens and profile pairs), the observation file
they make is byte-for-byte the one the unshared representation made, and
sharing never lets ``ok(True)`` stand for ``ok(1)``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Event, History, Invocation, Response, SystemUnderTest, TestHarness
from repro.core.history import serial_step
from repro.core.observations import observations_from_xml, observations_to_xml
from repro.core.testcase import sample_tests
from repro.structures.registry import get_class

#: ``lineup observations`` of the sampled 3×3 test below.
SAMPLED_XML_SHA256 = "d7a651e0ce6466a8daee8281d9b8b284a75b3581d269c67b01b357d4dec7c816"


@pytest.fixture(scope="module")
def sampled():
    entry = get_class("ConcurrentQueue")
    subject = SystemUnderTest(entry.factory("beta"), "ConcurrentQueue(beta)")
    (test,) = sample_tests(list(entry.invocations), 3, 3, 1, seed=1, init=entry.init)
    assert str(test) == (
        "[IsEmpty(), ToArray(), TryPeek() | TryPeek(), TryPeek(), Count() "
        "| Enqueue(10), Count(), Enqueue(20)]"
    )
    with TestHarness(subject) as harness:
        observations, _stats = harness.run_serial(test)
    return observations


class TestSampledSpecification:
    def test_1680_histories_share_a_few_dozen_steps(self, sampled):
        steps = [step for history in sampled for step in history.steps]
        assert len(sampled) == 1680 and len(steps) == 15120
        assert len({id(step) for step in steps}) <= 36
        tokens = [token for history in sampled for token in history.tokens()]
        assert len({id(token) for token in tokens}) <= 72

    def test_the_observation_file_is_unchanged(self, sampled):
        xml = observations_to_xml(sampled)
        assert hashlib.sha256(xml.encode()).hexdigest() == SAMPLED_XML_SHA256

    def test_a_loaded_file_shares_its_steps_too(self, sampled):
        loaded = observations_from_xml(observations_to_xml(sampled))
        steps = {id(step) for history in loaded for step in history.steps}
        assert len(loaded) == 1680 and len(steps) <= 36


def _serial(value, invocation=Invocation("Get")):
    events = [Event.call(0, 0, invocation), Event.ret(0, 0, Response.of(value))]
    return History(events, 1).to_serial()


class TestEqualValuesThatPrintDifferently:
    def test_true_and_1_never_share_a_step(self):
        one, true = _serial(1), _serial(True)
        assert one.steps[0] is not true.steps[0]
        assert str(one.steps[0]) == "A:Get() -> ok(1)"
        assert str(true.steps[0]) == "A:Get() -> ok(True)"
        assert _serial(True).steps[0] is true.steps[0]

    def test_arguments_are_told_apart_too(self):
        one = _serial(0, Invocation("Add", (1,)))
        true = _serial(0, Invocation("Add", (True,)))
        assert one.steps[0] is not true.steps[0]
        assert str(true.steps[0]) == "A:Add(True) -> ok(0)"

    def test_by_identity_and_by_value_agree(self):
        response = Response.of(True)
        step = serial_step(0, Invocation("Get"), response)
        assert serial_step(0, Invocation("Get"), response) is step
        assert serial_step(0, Invocation("Get"), Response.of(True)) is step
        assert serial_step(0, Invocation("Get"), Response.of(1)) is not step
        assert step.return_token == ("r", 0, response)
        assert step.pair == (Invocation("Get"), response)

    def test_a_value_typed_refuses_is_never_shared(self):
        first = serial_step(0, Invocation("Get"), Response.of(1.0))
        assert serial_step(0, Invocation("Get"), Response.of(1.0)) is not first
        assert str(first) == "A:Get() -> ok(1.0)"
