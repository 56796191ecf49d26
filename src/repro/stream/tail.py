"""Tailing trace reader: follow a JSONL trace while it is being written.

:class:`TraceTailer` is the stateful follower built on
:func:`repro.monitor.trace.scan_blocks`: each pass (:meth:`batches`, or
:meth:`poll` for all of it at once) consumes every complete line
appended since the previous one, a bounded block at a time, and
remembers the byte offset to resume from.  The failure modes of tailing
a live file are made explicit instead of silently mis-read:

* **Torn final line** — the writer was caught mid-append (or crashed
  there).  The partial tail is *not* consumed; the offset stays at its
  first byte and the next poll re-reads it, so a line completed between
  polls is picked up whole.  ``tailer.torn`` reports the condition.
* **Truncation** — the file shrank below our offset (a writer reopened
  it with ``"w"``, or copytruncate-style rotation).  Everything already
  consumed may no longer match the file; :class:`TraceTruncated` is
  raised and the caller must restart checking from offset 0.
* **Rotation** — the path now names a different file (inode changed:
  rename-and-recreate rotation).  :class:`TraceRotated` is raised; the
  caller restarts from offset 0 of the new file.
* **Not-yet-created** — the writer has not opened the file yet.  Polls
  return no segments until it appears; ``tailer.exists`` says which.

The tailer never blocks and never sleeps: pacing is the caller's loop
(:mod:`repro.stream.watch`), so tests can drive polls deterministically.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.monitor.trace import TraceError, TraceSegment, scan_blocks

__all__ = ["TraceRotated", "TraceTailer", "TraceTruncated"]


class TraceTruncated(TraceError):
    """The trace shrank below the consumed offset; restart from 0."""


class TraceRotated(TraceError):
    """The path names a new file (inode changed); restart from 0."""


class TraceTailer:
    """Incrementally consume a JSONL trace as another process appends it."""

    def __init__(self, path: str, start_offset: int = 0) -> None:
        self.path = path
        self.offset = start_offset
        self.torn = False
        self.exists = False
        self._ino: int | None = None

    def reset(self, start_offset: int = 0) -> None:
        """Forget all progress (after rotation/truncation recovery)."""
        self.offset = start_offset
        self.torn = False
        self.exists = False
        self._ino = None

    def batches(self) -> Iterator[list[TraceSegment]]:
        """One pass over the bytes the file holds now, a block at a time.

        The file is opened once and both its identity and its size are
        read from that handle, so a rotation can never pair one file's
        offset with another file's bytes.  Each batch is the complete
        lines of one :func:`~repro.monitor.trace.scan_blocks` block;
        ``offset`` and ``torn`` are advanced before it is handed over, so
        a caller that stops early has consumed exactly what it was given.
        Raises :class:`TraceTruncated` / :class:`TraceRotated` when the
        file identity changed under us, and plain :class:`TraceError` on
        mid-file corruption.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            if self.exists:
                # We were mid-file and the file vanished: rotation.
                raise TraceRotated(
                    f"trace file {self.path!r} disappeared while being "
                    "followed (rotated?)"
                ) from None
            return
        except OSError as exc:
            raise TraceError(
                f"cannot read trace file {self.path!r}: {exc}"
            ) from exc
        with handle:
            stat = os.fstat(handle.fileno())
            if self._ino is not None and stat.st_ino != self._ino:
                raise TraceRotated(
                    f"trace file {self.path!r} was replaced (inode "
                    f"{self._ino} -> {stat.st_ino}); restart from offset 0"
                )
            if stat.st_size < self.offset:
                raise TraceTruncated(
                    f"trace file {self.path!r} shrank to {stat.st_size} bytes "
                    f"below the consumed offset {self.offset}; restart from 0"
                )
            self.exists = True
            self._ino = stat.st_ino
            self.torn = False
            for batch in scan_blocks(
                handle, self.path, self.offset, stat.st_size
            ):
                self.offset = batch.next_offset
                self.torn = batch.torn
                yield batch.segments

    def poll(self) -> list[TraceSegment]:
        """Consume every complete line appended since the last poll.

        The (possibly empty) concatenation of one pass of
        :meth:`batches`, with its exceptions.
        """
        return [segment for batch in self.batches() for segment in batch]

    def backlog(self) -> int:
        """Unconsumed bytes currently in the file (0 when caught up)."""
        try:
            return max(0, os.stat(self.path).st_size - self.offset)
        except OSError:
            return 0
