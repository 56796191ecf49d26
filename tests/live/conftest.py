"""Shared fixtures for the live-checking suite.

Everything here favours the in-process reference SUT (fast, no spawn
cost); the few tests that need a killable SUT spawn the process variant
themselves and are marked accordingly.
"""

from __future__ import annotations

import threading

import pytest

from repro.live.refsut import (
    DEFAULT_RACE_WINDOW,
    RefSutState,
    _Handler,
    _Server,
)


class RefSut:
    """An in-process reference SUT: server thread + address."""

    def __init__(self, server: _Server, thread: threading.Thread) -> None:
        self._server = server
        self._thread = thread
        self.host, self.port = server.server_address[0], server.server_address[1]

    @property
    def state(self) -> RefSutState:
        return self._server.state  # type: ignore[attr-defined]

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=5)
        self._server.server_close()

    def __enter__(self) -> "RefSut":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_server(
    variant: str = "correct",
    *,
    port: int = 0,
    race_window: float = DEFAULT_RACE_WINDOW,
) -> RefSut:
    """Start the reference SUT on a server thread of this process (fast,
    not killable)."""
    server = _Server(("127.0.0.1", port), _Handler)
    server.state = RefSutState(variant, race_window)  # type: ignore[attr-defined]
    thread = threading.Thread(
        target=server.serve_forever, name="refsut", daemon=True
    )
    thread.start()
    return RefSut(server, thread)


@pytest.fixture()
def correct_sut():
    with start_server("correct") as sut:
        yield sut


@pytest.fixture()
def buggy_sut():
    # A generous race window keeps the seeded bugs reproducible on slow
    # CI machines without slowing the whole suite down.
    with start_server("buggy", race_window=0.01) as sut:
        yield sut
