"""Finite tests — the matrices of invocations Line-Up runs (Section 3.1).

A finite test assigns each thread a sequence of invocations; the paper
writes them as matrices with one column per thread (``M^I_{p×q}`` is the
set of all p-row, q-column matrices over invocation alphabet I).  The only
manual step when using Line-Up is picking the invocation alphabet.

Besides the matrix itself, a test may carry *init* and *final* invocation
sequences (Section 4.3): init runs before the columns start (single
threaded), final runs after every column finished — both are recorded as
ordinary operations of thread A, so they participate in specification
synthesis and witness matching like any other operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

from repro.core.events import Invocation

__all__ = [
    "FiniteTest",
    "enumerate_tests",
    "sample_tests",
]


@dataclass(frozen=True)
class FiniteTest:
    """A finite test: one invocation sequence per thread, plus init/final."""

    columns: tuple[tuple[Invocation, ...], ...]
    init: tuple[Invocation, ...] = ()
    final: tuple[Invocation, ...] = ()

    @staticmethod
    def of(
        columns: Sequence[Sequence[Invocation]],
        init: Sequence[Invocation] = (),
        final: Sequence[Invocation] = (),
    ) -> "FiniteTest":
        return FiniteTest(
            tuple(tuple(col) for col in columns), tuple(init), tuple(final)
        )

    @property
    def n_threads(self) -> int:
        return len(self.columns)

    @property
    def rows(self) -> int:
        return max((len(col) for col in self.columns), default=0)

    @property
    def total_operations(self) -> int:
        return sum(len(col) for col in self.columns) + len(self.init) + len(self.final)

    @property
    def dimension(self) -> tuple[int, int]:
        """(rows, columns) — the paper's p × q."""
        return (self.rows, self.n_threads)

    def column(self, thread: int) -> tuple[Invocation, ...]:
        return self.columns[thread]

    def render_matrix(self) -> str:
        """Multi-line matrix display in the paper's style."""
        names = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        headers = [
            f"Thread {names[t] if t < 26 else t}" for t in range(self.n_threads)
        ]
        cells = [[str(inv) for inv in col] for col in self.columns]
        widths = [
            max([len(headers[t])] + [len(c) for c in cells[t]])
            for t in range(self.n_threads)
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for r in range(self.rows):
            row = [
                (cells[t][r] if r < len(cells[t]) else "").ljust(widths[t])
                for t in range(self.n_threads)
            ]
            lines.append("  ".join(row).rstrip())
        if self.init:
            lines.insert(0, "init:  " + "; ".join(str(i) for i in self.init))
        if self.final:
            lines.append("final: " + "; ".join(str(i) for i in self.final))
        return "\n".join(lines)

    def __str__(self) -> str:
        cols = " | ".join(
            ", ".join(str(inv) for inv in col) for col in self.columns
        )
        return f"[{cols}]"


def enumerate_tests(
    invocations: Sequence[Invocation],
    rows: int,
    cols: int,
    init: Sequence[Invocation] = (),
    final: Sequence[Invocation] = (),
) -> Iterator[FiniteTest]:
    """Enumerate all of M^I_{rows×cols} (|I|^(rows*cols) tests).

    This is the inner loop of ``AutoCheck`` (Fig. 6); it grows fast, which
    is exactly why the paper adds random sampling.
    """
    if rows < 0 or cols < 0:
        raise ValueError("dimensions must be non-negative")
    column_choices = list(product(invocations, repeat=rows))
    for matrix in product(column_choices, repeat=cols):
        yield FiniteTest.of(matrix, init=init, final=final)


def sample_tests(
    invocations: Sequence[Invocation],
    rows: int,
    cols: int,
    k: int,
    seed: int = 0,
    init: Sequence[Invocation] = (),
    final: Sequence[Invocation] = (),
) -> list[FiniteTest]:
    """A uniform random sample of k tests from M^I_{rows×cols} (Fig. 8).

    Samples entries independently and deduplicates, which is uniform over
    the matrix space; used by ``RandomCheck`` with the paper's defaults of
    100 tests of dimension 3×3.
    """
    if k < 0:
        raise ValueError("sample size must be non-negative")
    if not invocations and rows * cols * k > 0:
        raise ValueError("cannot sample from an empty invocation alphabet")
    rng = random.Random(seed)
    seen: set[tuple] = set()
    out: list[FiniteTest] = []
    limit = len(invocations) ** (rows * cols) if invocations else 0
    while len(out) < min(k, limit):
        matrix = tuple(
            tuple(rng.choice(invocations) for _ in range(rows)) for _ in range(cols)
        )
        if matrix in seen:
            continue
        seen.add(matrix)
        out.append(FiniteTest.of(matrix, init=init, final=final))
    return out
