"""Daemon shutdown with requests in flight: graceful drain, no torn
protocol lines, and the socket file reclaimed afterwards."""

from __future__ import annotations

import threading
from pathlib import Path

from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.client import ReproClient
from repro.service.server import ReproServer


class HeldServer:
    """A daemon whose dispatch blocks until released — a request frozen
    between dispatch and response write, which is exactly the window a
    careless shutdown would tear."""

    def __init__(self, path):
        self.server = ReproServer(path, cache=ResultCache())
        self.thread = self.server.start()
        self.entered = threading.Event()
        self.release = threading.Event()
        original = self.server.dispatch

        def held_dispatch(line: str) -> dict:
            self.entered.set()
            self.release.wait(timeout=10)
            return original(line)

        self.server.dispatch = held_dispatch  # type: ignore[method-assign]

    def stop(self, **close_kwargs):
        self.release.set()
        self.server.shutdown()
        self.thread.join(timeout=5)
        self.server.close(**close_kwargs)


class TestInflightAccounting:
    def test_inflight_tracks_the_dispatch_window(self, tmp_path):
        held = HeldServer(tmp_path / "d.sock")
        try:
            assert held.server.inflight() == 0
            responses: list[dict] = []
            client_thread = threading.Thread(
                target=lambda: responses.append(
                    ReproClient(held.server.socket_path)
                    .connect().status()
                ),
                daemon=True,
            )
            client_thread.start()
            assert held.entered.wait(timeout=5)
            assert held.server.inflight() == 1
            assert not held.server.drain(timeout=0.1)  # still held
            held.release.set()
            client_thread.join(timeout=5)
            # The client can read the response before the handler thread
            # leaves its accounting block, so wait for the window to close
            # before reading the count.
            assert held.server.drain(timeout=1.0)
            assert held.server.inflight() == 0
            assert responses and responses[0]["ok"]
        finally:
            held.stop()


class TestGracefulShutdown:
    def test_close_drains_and_the_response_is_never_torn(self, tmp_path):
        """Shutdown starts while a request is mid-dispatch; close()
        waits for it, and the client still receives one complete,
        parseable protocol line."""
        held = HeldServer(tmp_path / "d.sock")
        socket_path = held.server.socket_path
        responses: list[dict] = []
        client_thread = threading.Thread(
            target=lambda: responses.append(
                ReproClient(socket_path).connect().status()
            ),
            daemon=True,
        )
        client_thread.start()
        assert held.entered.wait(timeout=5)

        closed = threading.Event()

        def shut_down() -> None:
            held.server.shutdown()
            held.server.close(drain_timeout=10.0)
            closed.set()

        closer = threading.Thread(target=shut_down, daemon=True)
        closer.start()
        assert not closed.wait(timeout=0.3), (
            "close() must wait for the in-flight request"
        )
        held.release.set()
        assert closed.wait(timeout=5)
        client_thread.join(timeout=5)
        held.thread.join(timeout=5)
        (response,) = responses
        assert response["ok"] and response["op"] == "status"
        protocol.ENVELOPE_SPEC.validate(response)  # a whole, valid line
        assert not Path(socket_path).exists()

    def test_drain_timeout_is_reported_and_socket_reclaimed(self, tmp_path):
        """A request that never finishes cannot hold shutdown hostage:
        close() times out, emits daemon.drain_timeout, and the socket
        path is still released for the next daemon."""
        path = tmp_path / "d.sock"
        held = HeldServer(path)

        def doomed_request() -> None:
            try:
                ReproClient(path).connect().status()
            except Exception:
                pass  # the daemon goes down under it; that is the point

        client_thread = threading.Thread(target=doomed_request, daemon=True)
        client_thread.start()
        assert held.entered.wait(timeout=5)
        held.server.shutdown()
        held.thread.join(timeout=5)
        held.server.close(drain_timeout=0.2)
        warnings = [
            e for e in held.server.event_buffer.records
            if e["name"] == "daemon.drain_timeout"
        ]
        assert warnings and warnings[0]["attrs"]["inflight"] == 1
        assert not path.exists()
        # The address is immediately reusable.
        held.release.set()
        client_thread.join(timeout=5)
        fresh = ReproServer(path, cache=ResultCache())
        thread = fresh.start()
        try:
            assert ReproClient(path).connect().status()["ok"]
        finally:
            fresh.shutdown()
            thread.join(timeout=5)
            fresh.close()
