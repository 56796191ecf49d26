"""Line-Up core: histories, specifications, and the two-phase checker.

The public workflow:

1. Wrap the implementation in a :class:`SystemUnderTest` (a factory that
   allocates all shared state through the provided
   :class:`repro.runtime.Runtime`).
2. Describe a finite test — a matrix of :class:`Invocation` per thread —
   or let :func:`random_check` / :func:`auto_check` generate them.
3. :func:`check` runs the two phases of Figure 5 and returns a
   :class:`CheckResult`; any FAIL proves the implementation is not
   linearizable with respect to *any* deterministic sequential
   specification (Theorem 5).
4. :func:`render_check_result` / :func:`render_violation` produce the
   paper-style reports; :mod:`repro.core.observations` reads and writes
   the Fig. 7 observation files.
"""

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first use:
#: ``watch`` imports ``events`` and ``history`` and nothing else of core.
_EXPORTS = {
    "CampaignResult": "repro.core.autocheck",
    "auto_check": "repro.core.autocheck",
    "minimize_failing_test": "repro.core.autocheck",
    "random_check": "repro.core.autocheck",
    "BudgetMeter": "repro.core.budget",
    "ExplorationBudget": "repro.core.budget",
    "ExplorationControl": "repro.core.budget",
    "CheckConfig": "repro.core.checker",
    "CheckResult": "repro.core.checker",
    "Violation": "repro.core.checker",
    "check": "repro.core.checker",
    "check_against_observations": "repro.core.checker",
    "check_with_harness": "repro.core.checker",
    "CheckpointError": "repro.core.checkpoint",
    "Checkpointer": "repro.core.checkpoint",
    "load_checkpoint": "repro.core.checkpoint",
    "save_checkpoint": "repro.core.checkpoint",
    "Event": "repro.core.events",
    "Invocation": "repro.core.events",
    "Operation": "repro.core.events",
    "Response": "repro.core.events",
    "atomic_write_text": "repro.core.fileio",
    "HarnessError": "repro.core.harness",
    "SystemUnderTest": "repro.core.harness",
    "TestHarness": "repro.core.harness",
    "History": "repro.core.history",
    "Profile": "repro.core.history",
    "SerialHistory": "repro.core.history",
    "SerialStep": "repro.core.history",
    "ObservationFileError": "repro.core.observations",
    "load_observations": "repro.core.observations",
    "observations_from_xml": "repro.core.observations",
    "observations_to_xml": "repro.core.observations",
    "save_observations": "repro.core.observations",
    "DOTNET_POLICIES": "repro.core.relaxed",
    "InterferencePolicy": "repro.core.relaxed",
    "InterferenceRule": "repro.core.relaxed",
    "check_relaxed": "repro.core.relaxed",
    "render_check_result": "repro.core.report",
    "render_violation": "repro.core.report",
    "NondeterminismWitness": "repro.core.spec",
    "ObservationSet": "repro.core.spec",
    "FiniteTest": "repro.core.testcase",
    "enumerate_tests": "repro.core.testcase",
    "sample_tests": "repro.core.testcase",
    "render_timeline": "repro.core.timeline",
    "VERDICT_PRECEDENCE": "repro.core.verdict",
    "worst_verdict": "repro.core.verdict",
    "brute_force_full_witness": "repro.core.witness",
    "check_full_history": "repro.core.witness",
    "check_stuck_history": "repro.core.witness",
    "is_witness_for": "repro.core.witness",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
