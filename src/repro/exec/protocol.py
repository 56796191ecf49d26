"""The supervisor ⟷ worker wire protocol.

Messages are JSON objects framed with an explicit 4-byte big-endian
length prefix and carried over a :mod:`multiprocessing` pipe.  The frame
layer is deliberately paranoid: a worker that dies mid-write, a hostile
subject that scribbles on file descriptors, or a partial read after a
``SIGKILL`` must surface as a clean :class:`ProtocolError` (which the
supervisor treats as a worker crash), never as a hang or a misparsed
message.

Message types
-------------

worker → supervisor:

* ``{"type": "ready", "pid": ..., "rlimits": {...}, "start_method":
  "fork"|"spawn"}`` — sent once after the sandbox applied its resource
  limits; ``rlimits`` is the applied limit snapshot and ``start_method``
  how this worker was actually started (both recorded in crash reports).
* ``{"type": "heartbeat", "seq": n, "task": id|null, "elapsed": s}`` —
  sent every ``heartbeat_interval`` seconds by a background thread.
  Heartbeat loss beyond the supervisor's timeout means the whole process
  is wedged (stopped, swapping, or stuck in an uninterruptible syscall)
  and the worker is killed.
* ``{"type": "result", "id": n, "verdict": ..., "summary": {...}}`` —
  one finished check.
* ``{"type": "task-error", "id": n, "error": ...}`` — the check raised
  an internal error; treated like a crash (retry, then quarantine).

supervisor → worker:

* ``{"type": "task", "id": n, "spec": {...}}`` — run one check.
* ``{"type": "shutdown"}`` — exit the worker loop cleanly.
"""

from __future__ import annotations

import json
import struct
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "recv_message",
    "send_message",
]

#: Upper bound on one frame; a length prefix beyond this is corruption,
#: not a legitimately huge message (results are summaries, not histories).
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """A frame could not be encoded, decoded, or delivered intact."""


def encode_frame(message: dict) -> bytes:
    """Serialize *message* to a length-prefixed JSON frame."""
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-able: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(frame: bytes) -> dict:
    """Parse one length-prefixed JSON frame, validating the prefix."""
    if len(frame) < _HEADER.size:
        raise ProtocolError(f"truncated frame: {len(frame)} bytes, no header")
    (length,) = _HEADER.unpack_from(frame)
    payload = frame[_HEADER.size:]
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header claims {length} bytes; corrupt")
    if len(payload) != length:
        raise ProtocolError(
            f"frame header claims {length} bytes but {len(payload)} followed"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a message object")
    return message


def send_message(conn: Any, message: dict) -> None:
    """Send one framed message over a pipe connection.

    Delivery failures (the peer is gone) surface as :class:`ProtocolError`
    so callers have a single failure mode to handle.
    """
    frame = encode_frame(message)
    try:
        conn.send_bytes(frame)
    except (OSError, ValueError, BrokenPipeError, EOFError) as exc:
        raise ProtocolError(f"cannot send {message.get('type')!r}: {exc}") from exc


def recv_message(conn: Any, timeout: float | None = None) -> dict | None:
    """Receive one framed message; None when *timeout* elapses first.

    EOF (the peer died) and torn frames raise :class:`ProtocolError`.
    """
    try:
        if timeout is not None and not conn.poll(timeout):
            return None
        frame = conn.recv_bytes(MAX_FRAME_BYTES + _HEADER.size)
    except EOFError as exc:
        raise ProtocolError("connection closed by peer") from exc
    except (OSError, ValueError) as exc:
        raise ProtocolError(f"cannot receive frame: {exc}") from exc
    return decode_frame(frame)
