"""Line-Up: a complete and automatic linearizability checker.

A Python reproduction of Burckhardt, Dern, Musuvathi & Tan (PLDI 2010).
Line-Up decides whether a concurrent component is *deterministically
linearizable* — linearizable with respect to some deterministic
sequential specification — fully automatically: phase 1 synthesizes the
specification by enumerating the component's serial behaviours, phase 2
model-checks the concurrent behaviours against it.  Any reported
violation is a proof of non-linearizability (no false alarms).

Quick start::

    from repro import check, CheckConfig, FiniteTest, Invocation, SystemUnderTest
    from repro.structures import ConcurrentQueue

    test = FiniteTest.of([
        [Invocation("Enqueue", (200,)), Invocation("Enqueue", (400,))],
        [Invocation("TryDequeue"), Invocation("TryDequeue")],
    ])
    subject = SystemUnderTest(lambda rt: ConcurrentQueue(rt, "pre"), "queue")
    result = check(subject, test)
    print(result.verdict)          # FAIL — the Figure 1 bug

Packages:

* :mod:`repro.core` — histories, specifications, the two-phase checker,
  Auto/RandomCheck, observation files and reports.
* :mod:`repro.runtime` — the stateless model-checking scheduler and the
  instrumented primitives (the CHESS substitute).
* :mod:`repro.structures` — the 13 .NET concurrency classes of Table 1
  in buggy ("pre") and fixed ("beta") vintages.
* :mod:`repro.analysis` — the comparison checkers of Section 5.6
  (happens-before races, conflict serializability).
"""

from repro._lazy import lazy_exports

#: Each public name and the package it comes from, imported on first use.
_EXPORTS = {
    "auto_check": "repro.core",
    "CampaignResult": "repro.core",
    "check": "repro.core",
    "check_against_observations": "repro.core",
    "check_relaxed": "repro.core",
    "check_with_harness": "repro.core",
    "CheckConfig": "repro.core",
    "CheckResult": "repro.core",
    "DOTNET_POLICIES": "repro.core",
    "FiniteTest": "repro.core",
    "InterferencePolicy": "repro.core",
    "InterferenceRule": "repro.core",
    "Invocation": "repro.core",
    "minimize_failing_test": "repro.core",
    "ObservationSet": "repro.core",
    "random_check": "repro.core",
    "render_check_result": "repro.core",
    "render_violation": "repro.core",
    "Response": "repro.core",
    "SystemUnderTest": "repro.core",
    "TestHarness": "repro.core",
    "Violation": "repro.core",
    "DFSStrategy": "repro.runtime",
    "RandomStrategy": "repro.runtime",
    "ReplayStrategy": "repro.runtime",
    "Runtime": "repro.runtime",
    "Scheduler": "repro.runtime",
}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
