"""The verdict lattice: one precedence order, one merge helper.

Every layer of the tool reduces many per-unit verdicts to one — a swarm
over its shard lineages, a sharded watch over its cells, a live run over
its monitor/service/budget outcomes, ``monitor`` over its files.  They
follow the same rule: report the *worst* thing that happened, under one
global severity order (a campaign's exit verdict has its own,
``campaign_verdict``).  This module is the single source of that order;
the historical per-module precedence tuples re-export it.

Severity rationale, worst first:

* ``FAIL`` — a violation is a proof (Theorem 5) and dominates everything.
* ``nondeterministic-verdict`` — re-runs of a FAIL disagreed (the
  flaky-verdict guard of :mod:`repro.exec.supervisor`); stronger evidence
  of trouble than a mere crash, weaker than a confirmed violation.
* ``CRASHED`` — the unit killed its worker (or the live service died);
  no verdict was obtained at all.
* ``LAGGED`` — an online watch fell behind its writer past the lag
  budget; the trace was seen but not fully checked in time.
* ``EXHAUSTED`` — the exploration budget tripped before completion.
* ``PASS`` — survives only when nothing worse happened.
"""

from __future__ import annotations

__all__ = ["VERDICT_PRECEDENCE", "worst_verdict"]

#: Global most-severe-first order over every verdict the tool produces.
VERDICT_PRECEDENCE = (
    "FAIL",
    "nondeterministic-verdict",
    "CRASHED",
    "LAGGED",
    "EXHAUSTED",
    "PASS",
)


def worst_verdict(verdicts) -> str:
    """The merged verdict implied by *verdicts* (most severe present).

    An empty pool merges to ``"PASS"`` (nothing bad was observed); a pool
    holding only verdicts outside the lattice surfaces its first element
    rather than silently normalizing — an unknown verdict is a bug worth
    seeing, not one worth hiding.
    """
    pool = list(verdicts)
    if not pool:
        return "PASS"
    for verdict in VERDICT_PRECEDENCE:
        if verdict in pool:
            return verdict
    return pool[0]
