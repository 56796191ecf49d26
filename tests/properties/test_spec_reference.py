"""The flat prefix table against the trie it replaced.

:class:`repro.core.spec.ObservationSet` and the verbatim trie-based
:class:`~tests.properties.spec_reference.ReferenceObservationSet` are fed
the same stream of serial histories — with duplicates, stuck histories,
conflicting continuations after equal prefixes and ``ok(1)`` next to
``ok(True)`` — and must agree on everything a caller can observe: every
``add`` result, the ``full`` / ``stuck`` lists and each profile's
candidates (as the same objects, in the same order), ``profiles()``, the
determinism verdict and every field of the witness, down to the text.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Invocation, Response
from repro.core.history import SerialHistory, SerialStep, serial_step
from repro.core.observations import observations_to_xml
from repro.core.spec import ObservationSet

from .spec_reference import ReferenceObservationSet

# Values that are equal and print differently sit side by side.
values = st.sampled_from([None, 0, 1, True, False, 2, "ok", "1"])

invocations = st.builds(
    Invocation,
    method=st.sampled_from(["a", "b"]),
    args=st.tuples() | st.tuples(st.sampled_from([1, True, 2])),
)

responses = st.one_of(
    st.builds(Response.of, values),
    st.builds(lambda name: Response("raised", name), st.sampled_from(["E1", "E2"])),
)


@st.composite
def steps(draw, n_threads, pending=False):
    make = serial_step if draw(st.booleans()) else SerialStep
    thread = draw(st.integers(0, n_threads - 1))
    return make(thread, draw(invocations), None if pending else draw(responses))


@st.composite
def histories(draw, n_threads, max_len=4):
    n = draw(st.integers(1, max_len))
    stuck = draw(st.booleans())
    body = [draw(steps(n_threads)) for _ in range(n - 1)]
    body.append(draw(steps(n_threads, pending=stuck)))
    return SerialHistory(tuple(body), stuck=stuck)


@st.composite
def variant(draw, base: SerialHistory, n_threads: int):
    """*base* again, or a history sharing a prefix of it that then calls
    the same invocation and answers differently (or blocks)."""
    kind = draw(st.sampled_from(["same", "rebuilt", "conflict", "extend"]))
    if kind == "same":
        return base
    if kind == "rebuilt":  # equal steps, fresh objects
        return SerialHistory(
            tuple(SerialStep(s.thread, s.invocation, s.response) for s in base.steps),
            stuck=base.stuck,
        )
    cut = draw(st.integers(0, len(base.steps) - 1))
    if kind == "extend" and not base.stuck:
        more = draw(histories(n_threads))
        return SerialHistory(base.steps + more.steps, stuck=more.stuck)
    call = base.steps[cut]
    stuck = draw(st.booleans())
    step = SerialStep(call.thread, call.invocation, None if stuck else draw(responses))
    return SerialHistory(base.steps[:cut] + (step,), stuck=stuck)


@st.composite
def streams(draw, max_len=10):
    n_threads = draw(st.integers(1, 3))
    out: list[SerialHistory] = []
    for _ in range(draw(st.integers(0, max_len))):
        if out and draw(st.booleans()):
            out.append(draw(variant(draw(st.sampled_from(out)), n_threads)))
        else:
            out.append(draw(histories(n_threads)))
    return n_threads, out


def _ids(histories) -> list[int]:
    return [id(h) for h in histories]


def _witness_fields(observations) -> tuple | None:
    witness = observations.nondeterminism
    if witness is None:
        return None
    return (
        id(witness.first),
        id(witness.second),
        witness.thread,
        repr(witness.invocation),
        repr(witness.continuation_a),
        repr(witness.continuation_b),
        witness.describe(),
    )


@given(streams())
@settings(max_examples=400, deadline=None)
def test_flat_table_observes_like_the_trie(stream):
    n_threads, histories_in = stream
    compact, reference = ObservationSet(n_threads), ReferenceObservationSet(n_threads)
    for history in histories_in:
        assert compact.add(history) == reference.add(history)
        assert compact.is_deterministic == reference.is_deterministic
        assert _witness_fields(compact) == _witness_fields(reference)
    assert len(compact) == len(reference)
    assert _ids(compact.full) == _ids(reference.full)
    assert _ids(compact.stuck) == _ids(reference.stuck)
    assert repr(compact.profiles()) == repr(reference.profiles())
    for profile in reference.profiles():
        assert _ids(compact.full_candidates(profile)) == _ids(
            reference.full_candidates(profile)
        )
        assert _ids(compact.stuck_candidates(profile)) == _ids(
            reference.stuck_candidates(profile)
        )
    assert observations_to_xml(compact) == observations_to_xml(reference)
