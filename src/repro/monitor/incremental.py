"""Incremental (online) linearizability checking with prefix retirement.

The offline Wing–Gong–Lowe search (:mod:`repro.monitor.wgl`) needs the
whole history up front and explores configurations ``(linearized set,
state)`` over *all* of it, so both its memory and its per-verdict latency
grow with trace length.  This module is the streaming refactor of the
same search, after the just-in-time linearization idea used by online
monitors (PAPERS.md: "Efficient Linearizability Monitoring"): consume
events one at a time and keep only the *frontier* — configurations over
the operations that are still concurrent — retiring every linearized
prefix into the model state.

The invariant.  At any point of the stream, :class:`IncrementalChecker`
holds the set of configurations

    ``(model state, {(pending op, response the model gave it)})``

reachable by some linearization of the consumed prefix in which **every
returned operation is linearized with its observed response**.  Calls
just open an operation.  Returns do all the work: when operation ``o``
returns with response ``r``, every configuration must linearize ``o`` —
possibly after first linearizing other still-open operations in some
order (the closure below enumerates those orders) — and the response the
model computes for ``o`` must equal ``r``.  Configurations that cannot
are dropped; an empty set is a proof that the consumed prefix (hence any
extension of it) is not linearizable, which is what makes an online FAIL
sound the moment it is reported.

**Retirement** is what bounds memory.  After ``o``'s return is
processed, ``o`` is linearized in *every* surviving configuration, so
its identity carries no more information — only its effect on the model
state does.  It is therefore deleted from every configuration (its
effect stays folded into the state) and counted into the retired prefix.
Configurations thus mention only operations that are open (called,
unreturned) — the concurrency window — so memory is bounded by the
window's width, never by trace length.  Laziness keeps this complete:
an open operation the witness linearizes early can always be linearized
later instead, at the next return's closure, reaching the same state in
the same order.

Operations that will never return (the live recorder's *indeterminate*
ops) stay open forever and simply remain linearizable at any future
point — or never — exactly the open-history semantics of
:func:`repro.monitor.wgl.wgl_check`; each costs at most one extra
bifurcation per configuration, so memory stays bounded by (window +
indeterminate count).

**Stuck histories** (the paper's Definition 2) add one step at the end.
A dumped execution that ended stuck or divergent left operations that
were observed to block, and each pending operation ``e`` needs a
justification: a linearization of the completed operations of ``H[e]``
after which the model blocks on ``e``.  ``H[e]`` drops every other
pending operation, so those linearizations end in exactly the states of
the **empty linearized-map bucket** — the configurations that
linearized every returned operation and no open one.  :meth:`justify`
is therefore one pass over one bucket per pending operation (a compact
state expanded first), never a search.

**Representation.**  Many configurations differ only in the model
state: the configurations of a closure that linearized the same open
operations with the same responses share their whole second component.
The set is therefore stored bucketed, ``linearized map -> set of model
states``, and the closure of a return runs one *bucket* at a time.
Everything that depends only on the linearized map is decided once per
bucket: which open operations may still be linearized from it, and —
when the returning operation was linearized by an earlier closure —
whether the response committed there equals the observed one, which
accepts or drops the whole bucket with one set operation.  Buckets are
visited in order of map size.  A successor linearizes exactly one more
operation, so when a bucket is reached all its states have arrived: each
configuration is visited once, and the set union that merges successor
states into their bucket is the only de-duplication there is — no
configuration is built, pushed and then thrown away.

Within one closure there is **one set-at-a-time model step per (bucket,
distinct open invocation)** — ``model.step_set(states, invocation)``,
which hands back the bucket's successors already grouped by answer, the
returning operation's invocation among them (four concurrent
``TryDequeue()`` cost one call per bucket, not four) — so the group of
the observed answer is also the set of states that accept the
observation.  The queue's and the stack's ``step_set`` step a whole
bucket in one pass for the methods that make closures large; every other
model and method runs the base class's loop over ``step``.  Nothing is
held between calls or between returns.  An *answer* is the plain ``(kind,
value)`` of :func:`~repro.core.events.plain_response`; no ``Response`` is
built per configuration.  When no *other* operation is open the closure
cannot grow; that case — almost every return of a per-key cell — steps
state by state and allocates no levels.

``max_configurations`` caps what can blow up: the configurations explored
by the closure of **one return** (exponential in the window width; the
live set is a subset of that closure, so it bounds memory by the same
number).  Exceeding it raises :class:`MonitorLimitError` and the caller
reports
EXHAUSTED, never a guess.  ``configurations`` is the lifetime total and
only a statistic: a healthy stream of any length never trips the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Hashable

from repro.core.events import Invocation, Response, plain_invocation, plain_response
from repro.monitor.models import SequentialModel

__all__ = [
    "IncrementalChecker",
    "MonitorLimitError",
    "OnlineCounterexample",
    "StreamStateError",
]


class MonitorLimitError(Exception):
    """The configuration cap was hit before the search concluded."""


class StreamStateError(Exception):
    """The event stream violated well-formedness (duplicate call, ...)."""


@dataclass(frozen=True)
class OnlineCounterexample:
    """Why the stream stopped being linearizable, at the failing return.

    ``thread``/``op_index``/``invocation``/``observed`` identify the
    returning operation whose response no configuration could justify,
    or — ``observed`` None — the pending operation of a stuck history
    that no state of the empty bucket blocks.
    ``candidates`` samples what the surviving configurations *could*
    offer instead: pairs of (model state, response the model computes
    for the invocation there — None when it blocks, or the response the
    configuration had already committed to when it linearized the
    operation earlier).  ``retired`` is the length of the linearized
    prefix already proven and retired before the failure.
    """

    thread: int
    op_index: int
    invocation: Invocation
    observed: Response | None
    candidates: tuple[tuple[Any, Response | None], ...]
    retired: int
    events_ingested: int

    def describe(self) -> str:
        what = (
            "blocked forever, but no linearization of the completed "
            "operations leaves the model blocking it"
            if self.observed is None
            else f"returned {self.observed}, but no linearization allows it"
        )
        lines = [
            f"operation [{self.invocation} @T{self.thread}] {what} "
            f"(after {self.retired} retired operations, "
            f"{self.events_ingested} events)",
        ]
        for state, response in self.candidates[:4]:
            want = "block" if response is None else str(response)
            lines.append(f"  in state {state!r} the model would {want}")
        return "\n".join(lines)


@dataclass
class _OpenOp:
    """One called-but-unreturned operation of the stream."""

    invocation: Invocation
    call_event: int  #: ingest index of the call event (lag accounting)
    indeterminate: bool = False


#: The linearized operations of the empty map (shared, never written).
_NOTHING: dict = {}


def _merge(buckets: dict, linmap: frozenset, states: set) -> None:
    """Union *states* (owned by the caller) into the bucket of *linmap*."""
    bucket = buckets.get(linmap)
    if bucket is None:
        buckets[linmap] = states
    else:
        bucket |= states


def _rejections(levels, key, invocation, model):
    """What each configuration of a failed closure offered instead.

    When no configuration accepts, every explored one rejected — with the
    response it had committed to, or the one the model computes there.
    """
    step = model.step
    for level in levels:
        for linmap, states in level.items():
            committed = dict(linmap).get(key)
            for state in model.expand(states):
                answer = committed or step(state, invocation)[1]
                yield state, None if answer is None else Response(*answer)


class IncrementalChecker:
    """Online WGL over one cell of a trace: feed events, read verdicts.

    The feeding protocol mirrors the v2 live-trace event kinds:
    :meth:`on_call`, :meth:`on_return`, :meth:`on_indeterminate`.
    ``on_return`` returns ``False`` the moment linearizability is lost —
    the verdict is final from then on (``failed`` stays set and further
    events are rejected).  :meth:`result` snapshots the current verdict
    at any point; a stream with a non-empty configuration set is
    linearizable so far.
    """

    engine = "incremental"

    def __init__(
        self,
        model: SequentialModel,
        *,
        max_configurations: int | None = None,
    ) -> None:
        self.model = model
        self.max_configurations = max_configurations
        #: configurations, bucketed: linearized map — frozenset of (key,
        #: answer) over linearized-but-unreturned (open or indeterminate)
        #: operations, an answer being the ``(kind, value)`` of the
        #: response the model gave — → the model states reached with it.
        self._configs: dict[frozenset, set[Hashable]] = {
            frozenset(): {model.initial_state()}
        }
        self._open: dict[tuple[int, int], _OpenOp] = {}
        self.configurations = 0  #: cumulative closure work (a statistic)
        self.retired = 0
        self.events_ingested = 0
        self.failed: OnlineCounterexample | None = None
        #: how a bucket's states are counted: one each until the model
        #: first compacts them, then as the concrete states they stand for.
        self._count = len
        #: high-water marks for the observability layer.
        self.max_frontier = 0
        self.max_live_configs = 1
        self.max_retirement_lag = 0

    # -- observability ----------------------------------------------------

    @property
    def frontier_size(self) -> int:
        """Open (unretired) operations — the concurrency window."""
        return len(self._open)

    @property
    def live_configs(self) -> int:
        """Configurations currently held (the memory driver)."""
        return sum(map(self._count, self._configs.values()))

    # -- the feeding protocol ---------------------------------------------

    def _reject_after_failure(self) -> None:
        if self.failed is not None:
            raise StreamStateError(
                "stream already failed; no further events are accepted"
            )

    def on_call(
        self, thread: int, op_index: int, invocation: Invocation
    ) -> None:
        self._reject_after_failure()
        key = (thread, op_index)
        if key in self._open:
            raise StreamStateError(f"duplicate call for operation {key}")
        self.events_ingested += 1
        self._open[key] = _OpenOp(invocation, self.events_ingested)
        self.max_frontier = max(self.max_frontier, len(self._open))

    def on_indeterminate(self, thread: int, op_index: int) -> None:
        """The operation will never return; it stays open forever."""
        self._reject_after_failure()
        key = (thread, op_index)
        if key not in self._open:
            raise StreamStateError(
                f"indeterminate marker for operation {key} with no open call"
            )
        self.events_ingested += 1
        self._open[key].indeterminate = True

    def on_return(
        self, thread: int, op_index: int, observed: Response
    ) -> bool:
        """Force-linearize the returning op; False = linearizability lost."""
        self._reject_after_failure()
        key = (thread, op_index)
        open_op = self._open.get(key)
        if open_op is None:
            raise StreamStateError(
                f"return for operation {key} with no open call"
            )
        self.events_ingested += 1
        invocation = open_op.invocation
        step = self.model.step
        step_set = self.model.step_set
        count = self._count
        cap = self.max_configurations
        seen = plain_response(observed)

        # What else could be linearized first, by invocation: operations
        # with equal invocations step the model identically, so they
        # share one step of each bucket.
        others: dict[tuple, tuple[Invocation, list[tuple[int, int]]]] = {}
        levels: list[dict[frozenset, set[Hashable]]]
        if len(self._open) > 1:
            for other_key, other in self._open.items():
                if other_key != key:
                    inv = other.invocation
                    entry = others.setdefault(plain_invocation(inv), (inv, []))
                    entry[1].append(other_key)
            # The returning operation's invocation gets the same pass.
            same = others.setdefault(
                plain_invocation(invocation), (invocation, [])
            )
            # levels[n] holds the buckets whose map linearizes n
            # operations.  A successor linearizes one more, so when a
            # level is read every bucket in it is complete: each is
            # visited once, and merging into the next level is the only
            # de-duplication there is.
            levels = [{} for _ in range(len(self._open) + 1)]
            for linmap, states in self._configs.items():
                levels[len(linmap)][linmap] = set(states)
        else:
            # Nothing else is open: the closure cannot grow, so it needs
            # no levels and no successor groups.
            levels = [self._configs]

        accepted: dict[frozenset, set[Hashable]] = {}
        explored = 0
        for level in levels:
            for linmap, states in level.items():
                explored += count(states)
                if cap is not None and explored > cap:
                    self.configurations += cap + 1
                    raise MonitorLimitError(
                        f"incremental check exceeded {cap} configurations "
                        "in the closure of one return"
                    )
                linearized = dict(linmap) if linmap else _NOTHING
                committed = linearized.get(key)
                if committed is not None:
                    # Linearized by an earlier closure with an answer
                    # the model computed; the observation now settles
                    # the whole bucket, and nothing expands from it.
                    if committed == seen:
                        _merge(
                            accepted, linmap - {(key, committed)}, set(states)
                        )
                    continue
                # One set-at-a-time model step per distinct open invocation:
                # it groups the successors by the model's answer...
                for entry in others.values():
                    inv, keys = entry
                    free = [k for k in keys if k not in linearized]
                    if not free and entry is not same:
                        continue
                    groups = step_set(states, inv)
                    # ...each group the successor set of every free operation
                    # alike (_merge inlined: the hot one, it copies only where
                    # it starts a bucket)...
                    successors = levels[len(linmap) + 1]
                    for answer, group in groups.items():
                        for other_key in free:
                            target = linmap | {(other_key, answer)}
                            bucket = successors.get(target)
                            if bucket is None:
                                successors[target] = set(group)
                            else:
                                bucket |= group
                    if entry is same:
                        # ...and, for the returning operation's invocation, the
                        # group of the observed answer accepts it right here.
                        hits = groups.get(seen)
                if not others:
                    if count is len:
                        hits = set()
                        for state in states:
                            new_state, answer = step(state, invocation)
                            if answer == seen:
                                hits.add(new_state)
                    else:  # compact states: only step_set steps them
                        hits = step_set(states, invocation).get(seen)
                if hits:
                    _merge(accepted, linmap, hits)

        lag = self.events_ingested - open_op.call_event
        if lag > self.max_retirement_lag:
            self.max_retirement_lag = lag
        del self._open[key]
        self.configurations += explored
        if not self._open and accepted:
            # One bucket is left, the empty map: where a burst of
            # concurrent operations may fold into one compact state.
            ((nothing, states),) = accepted.items()
            if len(states) > 1:
                compacted = self.model.compact(states)
                if compacted is not states:
                    accepted[nothing] = compacted
                    self._count = self.model.count
        self._configs = accepted
        live = self.live_configs
        if live > self.max_live_configs:
            self.max_live_configs = live
        if not accepted:
            self.failed = OnlineCounterexample(
                thread=thread,
                op_index=op_index,
                invocation=invocation,
                observed=observed,
                candidates=tuple(
                    islice(_rejections(levels, key, invocation, self.model), 8)
                ),
                retired=self.retired,
                events_ingested=self.events_ingested,
            )
            return False
        self.retired += 1
        return True

    # -- the end of a stuck history ---------------------------------------

    def justify(self, key: tuple[int, int]) -> bool:
        """Judge open operation *key* of a stuck history; False = unjustified.

        It may block forever iff a state of the empty bucket blocks its
        invocation (module docstring).  An unjustified operation fails
        the stream as a return does.
        """
        self._reject_after_failure()
        invocation = self._open[key].invocation
        bucket = self._configs.get(frozenset(), ())
        self.configurations += self._count(bucket)
        step = self.model.step
        if any(
            step(state, invocation)[1] is None
            for state in self.model.expand(bucket)
        ):
            return True
        self.failed = OnlineCounterexample(
            thread=key[0],
            op_index=key[1],
            invocation=invocation,
            observed=None,
            candidates=tuple(islice(
                _rejections([{frozenset(): bucket}], key, invocation, self.model),
                8,
            )),
            retired=self.retired,
            events_ingested=self.events_ingested,
        )
        return False

    def taken(self) -> frozenset:
        """The open operations a surviving linearization made take effect
        (those of a smallest linearized map): how a witness resolves
        them."""
        if not self._configs:
            return frozenset()
        return frozenset(key for key, _answer in min(self._configs, key=len))

    # -- verdicts ---------------------------------------------------------

