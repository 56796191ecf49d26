"""The flat-set online WGL closure, kept verbatim as the test oracle.

Until PR 19 :class:`repro.monitor.incremental.IncrementalChecker` held
its configurations as one flat set of ``(state, linearized map)`` pairs
and closed each return with a depth-first stack over single
configurations: one ``model.apply`` per (configuration, open operation),
every successor built, pushed, popped and only then de-duplicated.  That
class lives on here, unchanged apart from three things: its name, the
unused ``oldest_open_age`` (deleted in the same PR), and the
``max_configurations`` comparison, which counts the configurations of
*this return's* closure (``len(explored)``) instead of the lifetime
total, so that both sides of ``test_closure_oracle`` raise at the same
return.  It is the slow, obviously-right side of the differential test:
do not optimise it.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.events import Invocation, Response
from repro.monitor.incremental import (
    OnlineCounterexample,
    OnlineResult,
    StreamStateError,
    _OpenOp,
)
from repro.monitor.models import SequentialModel
from repro.monitor.wgl import MonitorLimitError


class ReferenceChecker:
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
        #: configurations: (state, frozenset of (key, Response)) for
        #: linearized-but-unreturned (open or indeterminate) operations.
        self._configs: set[tuple[Hashable, frozenset]] = {
            (model.initial_state(), frozenset())
        }
        self._open: dict[tuple[int, int], _OpenOp] = {}
        self.configurations = 0  #: cumulative closure work
        self.retired = 0
        self.events_ingested = 0
        self.failed: OnlineCounterexample | None = None
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
        return len(self._configs)

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

        accepted: set[tuple[Hashable, frozenset]] = set()
        explored: set[tuple[Hashable, frozenset]] = set()
        candidates: list[tuple[Any, Response | None]] = []
        stack = list(self._configs)
        while stack:
            config = stack.pop()
            if config in explored:
                continue
            explored.add(config)
            self.configurations += 1
            if (
                self.max_configurations is not None
                and len(explored) > self.max_configurations
            ):
                raise MonitorLimitError(
                    f"incremental check exceeded {self.max_configurations} "
                    "configurations"
                )
            state, linmap = config
            committed = None
            for k, resp in linmap:
                if k == key:
                    committed = resp
                    break
            if committed is not None:
                # The op was linearized during an earlier closure with a
                # model-computed response; now the observation arrived.
                if committed == observed:
                    accepted.add((state, linmap - {(key, committed)}))
                elif len(candidates) < 8:
                    candidates.append((state, committed))
                continue  # either way, nothing more to expand here
            linearized_keys = {k for k, _ in linmap}
            # Try the returning op directly from this configuration.
            new_state, response = self.model.apply(state, open_op.invocation)
            if response == observed:
                accepted.add((new_state, linmap))
            elif len(candidates) < 8:
                candidates.append((state, response))
            # Or first linearize some other still-open operation.
            for other_key, other in self._open.items():
                if other_key == key or other_key in linearized_keys:
                    continue
                other_state, other_resp = self.model.apply(
                    state, other.invocation
                )
                if other_resp is None:
                    continue  # the model blocks here
                stack.append(
                    (other_state, linmap | {(other_key, other_resp)})
                )

        lag = self.events_ingested - open_op.call_event
        self.max_retirement_lag = max(self.max_retirement_lag, lag)
        del self._open[key]
        self._configs = accepted
        self.max_live_configs = max(self.max_live_configs, len(accepted))
        if not accepted:
            self.failed = OnlineCounterexample(
                thread=thread,
                op_index=op_index,
                invocation=open_op.invocation,
                observed=observed,
                candidates=tuple(candidates),
                retired=self.retired,
                events_ingested=self.events_ingested,
            )
            return False
        self.retired += 1
        return True

    # -- verdicts ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.failed is None

    def result(self) -> OnlineResult:
        """Snapshot the verdict for the stream consumed so far."""
        return OnlineResult(
            ok=self.failed is None,
            engine=self.engine,
            configurations=self.configurations,
            retired=self.retired,
            frontier=len(self._open),
            counterexample=self.failed,
        )
