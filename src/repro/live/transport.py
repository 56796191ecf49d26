"""Client transport: where the network's failure modes become typed.

The whole soundness story of live recording rests on one distinction,
so the transport encodes it in the exception hierarchy:

* :class:`ConnectFailed` — the failure happened **before the request
  could have been sent** (TCP connect refused/timed out).  The
  operation certainly did not take effect, so the session may retry it
  freely (with jittered backoff) without recording anything.
* :class:`AmbiguousFailure` — the failure happened **after the request
  may have been sent** (send error, response timeout, connection reset
  mid-exchange).  Whether the operation took effect is unknowable from
  the client, so it must *not* be retried and must be recorded as a
  pending (indeterminate) operation — the open-history semantics of
  :mod:`repro.monitor.wgl` then allows it to have happened anywhere
  after its invocation, or not at all.

Collapsing the two — retrying an ambiguous failure, or recording a
pre-connect failure as pending — would respectively unsoundly duplicate
effects (a retried increment that *did* land counts twice) or dilute
the history with operations that never reached the wire.

:class:`HttpTransport` is the concrete client for the reference SUT's
wire protocol (one ``POST /op/<Method>`` per operation over a keep-alive
connection).  The chaos proxy (:mod:`repro.live.chaos`) wraps any
:class:`Transport` and injects faults through these same two types, so
the session layer cannot tell injected faults from real ones — which is
the point.
"""

from __future__ import annotations

import ast
import http.client
import socket
from urllib.parse import quote

from repro.core.events import Invocation, Response

__all__ = [
    "AmbiguousFailure",
    "ConnectFailed",
    "HttpTransport",
    "Transport",
    "TransportError",
]


class TransportError(Exception):
    """Base of the transport failure hierarchy."""

    def __init__(self, why: str) -> None:
        super().__init__(why)
        self.why = why


class ConnectFailed(TransportError):
    """Pre-invocation failure: the request was never sent — safe to retry."""


class AmbiguousFailure(TransportError):
    """Post-invocation failure: the request may have taken effect.

    Never retried; recorded as an indeterminate (pending) operation.
    """


class Transport:
    """One session's channel to the service under test.

    A transport answers four calls.  ``connect()`` ensures a connection
    exists, or raises :class:`ConnectFailed`.  ``call(invocation)``
    performs one operation and returns its :class:`Response`, or raises
    :class:`AmbiguousFailure`; it is only called after a successful
    ``connect()`` — the split is what lets the session retry connection
    establishment (safe) without ever retrying an in-flight operation
    (unsafe).  ``reset()`` drops the connection after an ambiguous
    failure, and ``close()`` releases it.
    """


class HttpTransport(Transport):
    """HTTP/1.1 keep-alive client for the reference SUT wire protocol."""

    def __init__(self, host: str, port: int, timeout: float = 1.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def connect(self) -> None:
        if self._conn is not None:
            return
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.connect()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ConnectFailed(type(exc).__name__) from exc
        # Reconnection is connect()'s job: if call() silently re-opened a
        # dropped socket mid-operation, the pre/post-invocation failure
        # classification would blur.
        conn.auto_open = 0
        self._conn = conn

    def call(self, invocation: Invocation) -> Response:
        if self._conn is None:
            raise ConnectFailed("NotConnected")
        path = (
            f"/op/{quote(invocation.method)}"
            f"?a={quote(repr(tuple(invocation.args)))}"
        )
        try:
            self._conn.request("POST", path)
            response = self._conn.getresponse()
            body = response.read().decode("utf-8")
        except (OSError, http.client.HTTPException, socket.timeout) as exc:
            # From the first byte of request() onward the server may have
            # received and executed the operation — ambiguous, full stop.
            self.reset()
            raise AmbiguousFailure(type(exc).__name__) from exc
        if response.status == 200:
            try:
                value = ast.literal_eval(body)
            except (ValueError, SyntaxError) as exc:
                self.reset()
                raise AmbiguousFailure("UnparseableResponse") from exc
            return Response.of(value)
        # An application-level error is a *definite* outcome: the service
        # answered.  Record it as a raised response, not an ambiguity.
        return Response("raised", body.strip() or f"HTTP{response.status}")

    def reset(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def close(self) -> None:
        self.reset()
