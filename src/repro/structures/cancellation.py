"""CancellationTokenSource — source of the nonlinearizability finding K.

The paper reports (Section 5.3) a class whose cancellation "effects can
take place well after the method has returned": ``Cancel`` initiates
cancellation, but the callbacks / final state transition run
asynchronously.  We model that asynchrony explicitly:

* ``Cancel`` only publishes a *request* flag and returns.
* The transition to the final canceled state (the "callback work") is
  performed lazily by whichever operation runs next — and whether the
  pending work has landed yet is a nondeterministic choice resolved by
  the scheduler (:meth:`Runtime.choose_bool`), exactly like the timing of
  a real asynchronous callback.

Because the choice is visible in *serial* executions too, Line-Up's
phase 1 already reports the class: the synthesized specification is
nondeterministic (an ``Increment`` immediately after ``Cancel`` returns
sometimes succeeds and sometimes raises).  That is the violation; the
classification "intentional — asynchronous semantics" (finding K) is the
human step, and the paper's future-work section explicitly calls out
such asynchronous methods.

``Increment`` mimics the paper's Table 1 method list for this class: it
bumps a counter unless cancellation has taken effect.
"""

from __future__ import annotations

from repro.runtime import Runtime

__all__ = ["CancellationTokenSource", "OperationCanceled"]


class OperationCanceled(Exception):
    """Raised once cancellation has taken effect."""


class CancellationTokenSource:
    """A cancellation source whose cancel effects land asynchronously."""

    def __init__(self, rt: Runtime, version: str = "beta"):
        if version not in ("beta", "pre"):
            raise ValueError(f"unknown version {version!r}")
        self._rt = rt
        self._requested = rt.volatile(False, "cts.requested")
        self._canceled = rt.volatile(False, "cts.canceled")
        self._count = rt.atomic(0, "cts.count")

    def _pump(self) -> None:
        """Maybe run the pending asynchronous cancellation work.

        Models callback timing: once cancellation was requested, the
        final transition lands at some nondeterministic later point.
        """
        if self._requested.get() and not self._canceled.get():
            if self._rt.choose_bool():
                self._canceled.set(True)

    def Cancel(self) -> None:
        """Request cancellation; the effects may land after the return."""
        self._requested.set(True)
        self._pump()

    def Increment(self) -> int:
        """Bump a counter unless cancellation has taken effect."""
        self._pump()
        if self._canceled.get():
            raise OperationCanceled()
        return self._count.increment()
