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

from repro.core.autocheck import (
    CampaignResult,
    auto_check,
    minimize_failing_test,
    random_check,
)
from repro.core.budget import BudgetMeter, ExplorationBudget, ExplorationControl
from repro.core.checkpoint import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.checker import (
    CheckConfig,
    CheckResult,
    Violation,
    check,
    check_against_observations,
    check_with_harness,
)
from repro.core.events import Event, Invocation, Operation, Response
from repro.core.harness import HarnessError, SystemUnderTest, TestHarness
from repro.core.history import History, Profile, SerialHistory, SerialStep
from repro.core.fileio import atomic_write_text
from repro.core.observations import (
    ObservationFileError,
    load_observations,
    observations_from_xml,
    observations_to_xml,
    save_observations,
)
from repro.core.relaxed import (
    DOTNET_POLICIES,
    InterferencePolicy,
    InterferenceRule,
    check_relaxed,
)
from repro.core.report import render_check_result, render_violation
from repro.core.spec import NondeterminismWitness, ObservationSet
from repro.core.testcase import FiniteTest, enumerate_tests, sample_tests
from repro.core.timeline import render_timeline
from repro.core.verdict import VERDICT_PRECEDENCE, worst_verdict
from repro.core.witness import (
    brute_force_full_witness,
    check_full_history,
    check_stuck_history,
    is_witness_for,
)

__all__ = [
    "BudgetMeter",
    "CampaignResult",
    "CheckConfig",
    "CheckResult",
    "CheckpointError",
    "Checkpointer",
    "DOTNET_POLICIES",
    "ExplorationBudget",
    "ExplorationControl",
    "Event",
    "FiniteTest",
    "HarnessError",
    "History",
    "InterferencePolicy",
    "InterferenceRule",
    "Invocation",
    "NondeterminismWitness",
    "ObservationFileError",
    "ObservationSet",
    "Operation",
    "Profile",
    "Response",
    "SerialHistory",
    "SerialStep",
    "SystemUnderTest",
    "TestHarness",
    "VERDICT_PRECEDENCE",
    "Violation",
    "atomic_write_text",
    "auto_check",
    "brute_force_full_witness",
    "check",
    "check_against_observations",
    "check_full_history",
    "check_relaxed",
    "check_stuck_history",
    "check_with_harness",
    "enumerate_tests",
    "is_witness_for",
    "load_checkpoint",
    "load_observations",
    "minimize_failing_test",
    "observations_from_xml",
    "observations_to_xml",
    "random_check",
    "render_check_result",
    "render_timeline",
    "render_violation",
    "sample_tests",
    "save_checkpoint",
    "save_observations",
    "worst_verdict",
]
