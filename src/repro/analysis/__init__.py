"""Comparison checkers (paper Section 5.6).

To test the choice of linearizability as the thread-safety oracle, the
paper runs two alternative dynamic checkers over the same executions:

* :mod:`.race_detector` — the happens-before data race detector (all
  races found in the .NET classes were benign), and
* :mod:`.serializability` — conflict-serializability ("atomicity")
  monitoring, which produced hundreds of false alarms on correct code.

Both operate on the access logs the runtime records during exploration.
"""

from repro.analysis.race_detector import Race, RaceDetector, detect_races
from repro.analysis.serializability import (
    SerializabilityReport,
    check_conflict_serializability,
)
from repro.analysis.vector_clock import VectorClock

__all__ = [
    "Race",
    "RaceDetector",
    "SerializabilityReport",
    "VectorClock",
    "check_conflict_serializability",
    "detect_races",
]
