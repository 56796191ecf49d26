"""The contract between the parser and the commands it runs.

Every command of :mod:`repro.cli` runs beside its subsystem, as
``run(args, stop) -> Outcome``: *args* is the parsed command line and
*stop* the :class:`SignalStop` flag its loops poll.  :func:`repro.cli.main`
prints the :class:`Outcome` once and maps its verdict to an exit code once.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = ["Outcome", "SignalStop", "UsageError"]


class UsageError(Exception):
    """A user-facing command-line error (exit 64)."""


@dataclass
class Outcome:
    """What a command found: the verdict it exits on, the report it prints
    (``render()`` as text, ``to_dict()`` under ``--json``), and the
    checkpoint a stopped run continues from, named once it is on disk."""

    verdict: str
    render: Callable[[], str]
    to_dict: Callable[[], dict] | None = None
    interrupted: bool = False
    resume: str | None = None


class SignalStop:
    """Graceful-shutdown flag set by SIGINT/SIGTERM inside ``with``.

    The first signal only raises the flag; the exploration loops poll it
    between executions (via :class:`repro.core.budget.ExplorationControl`),
    flush their checkpoint and report partial results.  A second signal,
    or a first one before anything polled the flag (a command with no
    loop to wind down), is an ordinary KeyboardInterrupt.
    """

    def __init__(self) -> None:
        self.flag = False
        self.polled = False
        self._previous: dict[int, object] = {}

    def __call__(self) -> bool:
        self.polled = True
        return self.flag

    def _handle(self, signum: int, frame: object) -> None:
        if self.flag or not self.polled:
            raise KeyboardInterrupt
        self.flag = True
        print(
            "\nreceived signal — finishing the current execution and "
            "flushing state (send again to abort immediately) ...",
            file=sys.stderr,
        )

    def __enter__(self) -> "SignalStop":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # not the main thread
                pass
        return self

    def __exit__(self, *exc_info: object) -> None:
        for sig, handler in self._previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass
        self._previous.clear()
