"""Distributed tracing across the socket protocol, and the daemon's
HTTP observability plane.

Covers the PR 8 acceptance criteria: a daemon op span parents under the
calling client's span (same trace id, ``remote_parent`` edge); a client
with no active span sends byte-identical requests, so old clients see
byte-identical behaviour; a malformed traceparent is a protocol error,
not a crash; and ``GET /metrics`` is byte-equal to the socket
``metrics`` op."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.obs import Tracer, span_event
from repro.service.cache import ResultCache
from repro.service.client import ReproClient, ServiceError
from repro.service.server import ReproServer
from repro.obs.context import installed


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(
        tmp_path / "repro.sock",
        cache=ResultCache(disk_dir=tmp_path / "cache"),
    )
    thread = srv.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)
    srv.close()


def _op_events(server, name):
    """Captured op spans as wire events (the ring keeps root spans)."""
    return [
        span_event(span) for span in server.trace_buffer.roots
        if span.name == name
    ]


class TestClientPropagation:
    def test_daemon_op_parents_under_the_client_span(
        self, server, wind_source
    ):
        """Acceptance: the daemon's ``op.check`` span joins the client's
        trace — same trace id, parent edge to the client's span —
        across the socket."""
        client_tracer = Tracer()
        with installed(tracer=client_tracer):
            with client_tracer.span("campaign.trial") as trial:
                with ReproClient(server.socket_path) as client:
                    assert client.check(source=wind_source)["ok"]
        ops = _op_events(server, "op.check")
        assert len(ops) == 1
        assert ops[0]["trace_id"] == trial.trace_id
        assert ops[0]["parent_id"] == trial.span_id
        assert ops[0]["remote_parent"] is True

    def test_remote_attached_op_span_stays_in_the_ring(
        self, server, wind_source
    ):
        """A remote parent must not hide the op span from the daemon's
        own ring buffer: attached roots are still local roots."""
        client_tracer = Tracer()
        with installed(tracer=client_tracer):
            with client_tracer.span("outer"):
                with ReproClient(server.socket_path) as client:
                    client.request({"op": "status"})
        assert _op_events(server, "op.status")

    def test_explicit_trace_field_wins_over_the_active_span(
        self, server
    ):
        client_tracer = Tracer()
        with installed(tracer=client_tracer):
            with client_tracer.span("ignored"):
                with ReproClient(server.socket_path) as client:
                    response = client.request(
                        {"op": "status", "trace": "00-t77-9-01"}
                    )
        assert response["ok"]
        ops = _op_events(server, "op.status")
        assert ops[0]["trace_id"] == "t77"
        assert ops[0]["parent_id"] == 9

    def test_client_payload_not_mutated(self, server):
        client_tracer = Tracer()
        payload = {"op": "status"}
        with installed(tracer=client_tracer):
            with client_tracer.span("outer"):
                with ReproClient(server.socket_path) as client:
                    client.request(payload)
        assert payload == {"op": "status"}


class TestOldClients:
    def test_no_span_no_trace_field(self, server, monkeypatch):
        """A client with no active span must put nothing extra on the
        wire — the request line is byte-identical to pre-PR-8 clients."""
        from repro.service import protocol

        sent = []
        real_dumps = protocol.dumps

        def spying_dumps(obj):
            sent.append(obj)
            return real_dumps(obj)

        monkeypatch.setattr(
            "repro.service.protocol.dumps", spying_dumps
        )
        with ReproClient(server.socket_path) as client:
            client.request({"op": "status"})
        requests = [obj for obj in sent if obj.get("op") == "status"]
        assert requests and all("trace" not in obj for obj in requests)

    def test_traceless_op_span_is_a_plain_root(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
        ops = _op_events(server, "op.check")
        assert ops[0]["parent_id"] is None
        assert "remote_parent" not in ops[0]


class TestMalformedContext:
    @pytest.mark.parametrize("bad", [
        "nope", "99-t1-2-01", "00-t1-two-01", 7,
    ])
    def test_bad_traceparent_is_a_protocol_error(self, server, bad):
        with ReproClient(server.socket_path) as client:
            response = client.request({"op": "status", "trace": bad})
        assert response["ok"] is False
        assert "bad trace context" in response["message"]

    def test_daemon_survives_and_still_serves(self, server):
        with ReproClient(server.socket_path) as client:
            client.request({"op": "status", "trace": "broken"})
            assert client.request({"op": "status"})["ok"]

    def test_checked_helper_raises_service_error(self, server):
        with ReproClient(server.socket_path) as client:
            with pytest.raises(ServiceError, match="bad trace context"):
                client._checked({"op": "status", "trace": "broken"})


class TestHttpPlane:
    def test_metrics_byte_equal_to_socket_op(self, tmp_path, wind_source):
        srv = ReproServer(
            tmp_path / "repro.sock",
            cache=ResultCache(disk_dir=tmp_path / "cache"),
            http_port=0,
        )
        thread = srv.start()
        try:
            with ReproClient(srv.socket_path) as client:
                client.check(source=wind_source)
                socket_text = client.metrics(format="prometheus")[
                    "metrics_text"
                ]
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.exporter.port}/metrics",
                    timeout=5,
                ) as response:
                    http_body = response.read()

            # The resource gauges (RSS, GC) read live process state and
            # may legitimately drift between the two scrapes — strip
            # them before the byte diff, but insist both scrapes carry
            # them.
            def stable(text: str) -> str:
                return "\n".join(
                    line for line in text.splitlines()
                    if not line.startswith(("repro_rss_", "repro_gc_"))
                )

            http_text = http_body.decode("utf-8")
            assert stable(http_text) == stable(socket_text)
            for scrape in (http_text, socket_text):
                assert "repro_rss_bytes" in scrape
                assert "repro_gc_collections_total" in scrape
        finally:
            srv.shutdown()
            thread.join(timeout=5)
            srv.close()

    def test_healthz_reports_daemon_liveness(self, tmp_path):
        srv = ReproServer(tmp_path / "repro.sock", http_port=0)
        thread = srv.start()
        try:
            with ReproClient(srv.socket_path) as client:
                client.request({"op": "status"})
            with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.exporter.port}/healthz", timeout=5
            ) as response:
                health = json.loads(response.read())
            assert health["ok"] is True
            assert health["socket"] == srv.socket_path
            assert health["inflight"] == 0
            assert health["requests_served"] >= 1
            assert health["uptime_seconds"] >= 0.0
            import os

            assert health["pid"] == os.getpid()
            # Resource telemetry (memory PR): RSS, GC, cache occupancy.
            assert health["rss_bytes"] > 0
            assert health["gc"]["collections"] >= 0
            assert health["gc"]["pause_seconds_total"] >= 0.0
            assert health["cache_occupancy"] == {}  # no cache configured
        finally:
            srv.shutdown()
            thread.join(timeout=5)
            srv.close()

    def test_http_events_mirror_the_daemon_ring(self, tmp_path):
        srv = ReproServer(tmp_path / "repro.sock", http_port=0)
        thread = srv.start()
        try:
            with ReproClient(srv.socket_path) as client:
                client.request({"op": "status"})
            with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.exporter.port}"
                f"/events?name=daemon.request",
                timeout=5,
            ) as response:
                document = json.loads(response.read())
            names = [e["name"] for e in document["events"]]
            assert names and set(names) == {"daemon.request"}
        finally:
            srv.shutdown()
            thread.join(timeout=5)
            srv.close()

    def test_no_port_no_exporter(self, server):
        assert server.exporter.enabled is False
        assert server.exporter.port is None


def test_span_event_round_trip_marker(server, wind_source):
    """The ring's dicts come from span_event; re-serializing a captured
    remote-rooted op span keeps the marker (what `repro serve` would
    write to a trace file)."""
    client_tracer = Tracer()
    with installed(tracer=client_tracer):
        with client_tracer.span("outer"):
            with ReproClient(server.socket_path) as client:
                client.request({"op": "status"})
    event = _op_events(server, "op.status")[0]
    assert event == json.loads(json.dumps(event))
