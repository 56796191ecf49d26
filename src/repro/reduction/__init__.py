"""Schedule-space reduction: prune redundant interleavings, keep verdicts.

The phase-2 search of the checker enumerates thread interleavings; many
of them differ only in the order of *independent* steps and produce the
same history.  This package derives a dependence relation from the
runtime's access records (:mod:`repro.reduction.dependence`), uses it to
prune redundant schedules during the DFS (sleep sets and DPOR in
:mod:`repro.reduction.strategies`), and to count how many genuinely
distinct behaviours an exploration covered
(:mod:`repro.reduction.fingerprint`).

Select a reduction with ``--reduction {none,sleep,dpor}`` on the CLI or
``CheckConfig(reduction=...)``; it composes with preemption bounding and
iterative context bounding.  Phase 1 (serial enumeration) is never
reduced — Theorem 5's completeness argument needs every serial history.
"""

from repro.reduction.dependence import (
    HISTORY_LOCATION,
    DependenceIndex,
    StepFootprint,
    conflicts,
    dependence_index,
    earlier_conflicts,
    happens_before_clocks,
    step_footprints,
)
from repro.reduction.fingerprint import (
    FingerprintError,
    FingerprintSet,
    execution_fingerprint,
)
from repro.reduction.strategies import DPORStrategy, SleepSetStrategy

__all__ = [
    "DPORStrategy",
    "DependenceIndex",
    "FingerprintError",
    "FingerprintSet",
    "HISTORY_LOCATION",
    "SleepSetStrategy",
    "StepFootprint",
    "conflicts",
    "dependence_index",
    "earlier_conflicts",
    "execution_fingerprint",
    "happens_before_clocks",
    "step_footprints",
]
