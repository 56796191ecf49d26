"""Conflict-serializability monitoring (paper Section 5.6).

The paper implemented the atomicity checker of Farzan & Madhusudan
("Monitoring atomicity in concurrent programs", CAV 2008), which decides
whether one dynamic execution is *conflict-serializable* when each
operation of the test is treated as a transaction.  This module is that
monitor for our runtime:

* each operation (delimited by the harness's :class:`OpMark` records) is
  a transaction;
* two accesses conflict when they touch the same location and at least
  one writes (lock acquire/release and CAS count as writes to the lock /
  cell location);
* the execution is conflict-serializable iff the transaction conflict
  graph — an edge T1 → T2 whenever some access of T1 precedes a
  conflicting access of T2 — is acyclic.

The paper's experience: this check produced *hundreds of warnings on
correct code* (CAS retry loops, double-checked timing optimizations,
comparison right-movers, lazy initialization), which is why they argue
linearizability is the better thread-safety oracle.  The Section 5.6
benchmark reproduces that false-alarm gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.harness import OpMark
from repro.runtime import AccessRecord

__all__ = ["SerializabilityReport", "check_conflict_serializability"]

#: Transaction id: (thread, per-thread operation index).
TxnId = tuple[int, int]


@dataclass(frozen=True)
class SerializabilityReport:
    """Outcome of the conflict-serializability check on one execution."""

    serializable: bool
    #: a cycle in the conflict graph (list of transaction ids), or ().
    cycle: tuple[TxnId, ...] = ()
    transactions: int = 0
    conflict_edges: int = 0


def _conflicts(a: AccessRecord, b: AccessRecord) -> bool:
    # uid disambiguates instances whose per-execution location ids
    # collide (shared pre-allocated vs factory-allocated cells).
    if (a.uid or a.location) != (b.uid or b.location):
        return False
    writes = ("write", "cas-ok", "acquire", "release")
    return a.kind in writes or b.kind in writes


def check_conflict_serializability(accesses: Iterable) -> SerializabilityReport:
    """Check one execution's access log (with OpMark delimiters)."""
    # 1. Attribute accesses to transactions.
    current: dict[int, TxnId] = {}
    txn_accesses: list[tuple[TxnId, AccessRecord]] = []
    order: list[TxnId] = []
    for record in accesses:
        if isinstance(record, OpMark):
            if record.kind == "begin":
                txn = (record.thread, record.op_index)
                current[record.thread] = txn
                order.append(txn)
            else:
                current.pop(record.thread, None)
        elif isinstance(record, AccessRecord):
            txn = current.get(record.thread)
            if txn is not None:  # accesses outside operations are ignored
                txn_accesses.append((txn, record))

    # 2. Build the conflict graph.
    edges: dict[TxnId, set[TxnId]] = {txn: set() for txn in order}
    edge_count = 0
    for i, (txn_a, access_a) in enumerate(txn_accesses):
        for txn_b, access_b in txn_accesses[i + 1 :]:
            if txn_a == txn_b or not _conflicts(access_a, access_b):
                continue
            if txn_b not in edges[txn_a]:
                edges[txn_a].add(txn_b)
                edge_count += 1
    # Program order within a thread is also a serialization constraint.
    by_thread: dict[int, list[TxnId]] = {}
    for txn in order:
        by_thread.setdefault(txn[0], []).append(txn)
    for txns in by_thread.values():
        for earlier, later in zip(txns, txns[1:]):
            if later not in edges[earlier]:
                edges[earlier].add(later)
                edge_count += 1

    # 3. Cycle detection (iterative DFS, three-colour).
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {txn: WHITE for txn in edges}
    parent: dict[TxnId, TxnId | None] = {}

    def found_cycle(start: TxnId) -> tuple[TxnId, ...] | None:
        stack: list[tuple[TxnId, Iterable[TxnId]]] = [(start, iter(sorted(edges[start])))]
        colour[start] = GREY
        parent[start] = None
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if colour[succ] == GREY:
                    # reconstruct the cycle succ ... node
                    cycle = [node]
                    walk = node
                    while walk != succ:
                        walk = parent[walk]  # type: ignore[assignment]
                        cycle.append(walk)
                    cycle.reverse()
                    return tuple(cycle)
                if colour[succ] == WHITE:
                    colour[succ] = GREY
                    parent[succ] = node
                    stack.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
        return None

    for txn in edges:
        if colour[txn] == WHITE:
            cycle = found_cycle(txn)
            if cycle is not None:
                return SerializabilityReport(
                    serializable=False,
                    cycle=cycle,
                    transactions=len(edges),
                    conflict_edges=edge_count,
                )
    return SerializabilityReport(
        serializable=True, transactions=len(edges), conflict_edges=edge_count
    )
