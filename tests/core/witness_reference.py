"""The serial-witness check as the checker once ran it: every ordered
pair of operations tested with :meth:`History.precedes`, for every
candidate.  ``is_witness_for`` reads ``History.precedence`` instead; the
witness tests hold the two equal."""

from __future__ import annotations

from repro.core.history import History, SerialHistory


def is_witness_for(candidate: SerialHistory, history: History) -> bool:
    """Condition 3 of a serial witness, ``<H ⊆ <S``, pair by pair."""
    positions = candidate.positions
    ops = history.operations
    for a in ops:
        if a.return_pos is None:
            continue  # a pending op precedes nothing
        for b in ops:
            if a is b or not history.precedes(a, b):
                continue
            pa = positions.get(a.key)
            pb = positions.get(b.key)
            if pa is None or pb is None or pa >= pb:
                return False
    return True
