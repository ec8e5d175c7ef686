"""Client deadline budget and mid-request drop recovery.

The deadline tests run on an injected fake clock, so exhausting a
multi-second budget costs no wall time; the drop tests run against a
real daemon with planned socket-drop faults on both ends of the wire.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosConfig, ChaosInjector
from repro.obs import EventBuffer, EventLog
from repro.service.cache import ResultCache
from repro.service.client import (
    DeadlineExceeded,
    ReproClient,
    ServiceError,
    protocol,
)
from repro.service.server import ReproServer
from repro.obs.context import installed


class FakeTime:
    """A clock that only moves when someone sleeps on it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slept: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def start_server(path):
    server = ReproServer(path, cache=ResultCache())
    thread = server.start()
    return server, thread


def stop_server(server, thread):
    server.shutdown()
    thread.join(timeout=5)
    server.close()


class TestDeadlineBudget:
    def test_unbounded_retries_require_a_deadline(self, tmp_path):
        with pytest.raises(ValueError, match="op_deadline"):
            ReproClient(tmp_path / "x.sock", connect_retries=None)

    def test_deadline_bounds_an_endless_connect_loop(self, tmp_path):
        """connect_retries=None retries forever in attempt-count terms;
        the total deadline budget is what stops it."""
        fake = FakeTime()
        client = ReproClient(
            tmp_path / "absent.sock",
            connect_retries=None,
            op_deadline=2.0,
            connect_backoff=0.5,
            backoff_cap=0.5,
            clock=fake.clock,
            sleep=fake.sleep,
        )
        with pytest.raises(DeadlineExceeded, match="2.000s exceeded"):
            client.connect()
        # Four 0.5s backoffs spend the 2.0s budget exactly.
        assert fake.slept == [0.5, 0.5, 0.5, 0.5]

    def test_deadline_error_carries_a_protocol_envelope(self, tmp_path):
        fake = FakeTime()
        client = ReproClient(
            tmp_path / "absent.sock",
            connect_retries=None,
            op_deadline=1.0,
            clock=fake.clock,
            sleep=fake.sleep,
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            client.request({"op": "status"})
        envelope = excinfo.value.envelope
        assert envelope["kind"] == "error"
        assert envelope["error"] == "deadline-exceeded"
        assert envelope["version"] == protocol.PROTOCOL_VERSION
        assert "deadline" in envelope["message"]

    def test_backoff_sleeps_are_clipped_to_the_budget(self, tmp_path):
        """A 10s backoff step never sleeps past the 1s deadline."""
        fake = FakeTime()
        client = ReproClient(
            tmp_path / "absent.sock",
            connect_retries=None,
            op_deadline=1.0,
            connect_backoff=10.0,
            clock=fake.clock,
            sleep=fake.sleep,
        )
        with pytest.raises(DeadlineExceeded):
            client.connect()
        assert fake.slept == [1.0]

    def test_finite_retries_without_deadline_still_work(self, tmp_path):
        """The pre-deadline behavior is unchanged: a bounded attempt
        count surfaces the plain connect error, not DeadlineExceeded."""
        fake = FakeTime()
        client = ReproClient(
            tmp_path / "absent.sock", connect_retries=2,
            clock=fake.clock, sleep=fake.sleep,
        )
        with pytest.raises(ServiceError, match="3 attempt") as excinfo:
            client.connect()
        assert not isinstance(excinfo.value, DeadlineExceeded)


class TestDropRecovery:
    def test_client_side_drop_is_retried_once(self, tmp_path):
        """An injected connection reset after the request is sent: the
        client reconnects, replays the request once, and the caller
        never sees the drop — only the chaos.recovery event does."""
        server, thread = start_server(tmp_path / "daemon.sock")
        buffer = EventBuffer(capacity=128)
        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("socket-drop",),
                        sites=("client.request",))
        )
        try:
            with installed(
                event_log=EventLog(level="debug", sinks=(buffer,))
            ):
                with installed(chaos=injector):
                    with ReproClient(server.socket_path) as client:
                        response = client.status()
            assert response["ok"]
        finally:
            stop_server(server, thread)
        [recovery] = [
            e for e in buffer.records
            if e["name"] == "chaos.recovery"
            and e["attrs"]["action"] == "client-reconnected"
        ]
        assert recovery["attrs"]["site"] == "client.request"
        assert injector.summary()["by_fault"] == {"socket-drop": 1}

    def test_server_side_drop_is_retried_once(self, tmp_path):
        """The daemon executes the request but its response never ships
        (crash-between-dispatch-and-write): the client sees EOF and
        replays on a fresh connection."""
        server, thread = start_server(tmp_path / "daemon.sock")
        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("socket-drop",),
                        sites=("server.response",), max_fires=1)
        )
        try:
            with installed(chaos=injector):
                with ReproClient(server.socket_path) as client:
                    response = client.status()
            assert response["ok"]
            # The replayed request got a fresh server-side request id.
            assert response["request_id"] == 2
        finally:
            stop_server(server, thread)
        assert injector.summary()["by_fault"] == {"socket-drop": 1}

    def test_drop_after_deadline_surfaces_deadline_exceeded(self, tmp_path):
        """No budget left when the retry would start: the client gives
        up with DeadlineExceeded instead of replaying.  The clock jumps
        past the deadline while the dropped request is in flight."""
        server, thread = start_server(tmp_path / "daemon.sock")
        now = {"t": 0.0}

        def racing_clock() -> float:
            # 3s pass per observation against a 5s budget: the check
            # before the send still has budget, the check after the
            # drop does not.
            now["t"] += 3.0
            return now["t"]

        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("socket-drop",),
                        sites=("client.request",))
        )
        try:
            client = ReproClient(
                server.socket_path, op_deadline=5.0, clock=racing_clock,
            )
            with installed(chaos=injector):
                with client:
                    with pytest.raises(DeadlineExceeded):
                        client.status()
        finally:
            stop_server(server, thread)
