"""The HTTP observability plane: endpoint contracts, byte-equality
with the registry's Prometheus exposition, and the null off state."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, NullExporter, maybe_exporter
from repro.obs.exporter import (
    ExporterError,
    MetricsExporter,
    PROMETHEUS_CONTENT_TYPE,
)


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_checks_total", "Checks run").inc(3)
    registry.gauge("repro_inflight", "In-flight requests").set(1)
    return registry


def _get(port: int, path: str):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5
        ) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


@pytest.fixture
def exporter():
    registry = _registry()
    events = [
        {"schema": 1, "event": "log", "seq": 1, "time_seconds": 0.0,
         "level": "info", "name": "campaign.plan", "message": "",
         "trace_id": None, "span_id": None, "attrs": {"planned": 3}},
        {"schema": 1, "event": "log", "seq": 2, "time_seconds": 0.5,
         "level": "error", "name": "campaign.shard", "message": "gave up",
         "trace_id": None, "span_id": None, "attrs": {}},
    ]
    with MetricsExporter(
        registry=registry,
        events=lambda: events,
        health=lambda: {"pid": 1234, "uptime_seconds": 1.5},
    ) as running:
        yield running


class TestMetricsEndpoint:
    def test_byte_equal_to_registry_exposition(self, exporter):
        status, headers, body = _get(exporter.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert body == exporter.registry.render_prometheus().encode()
        assert b"repro_checks_total 3" in body

    def test_prepare_runs_before_every_scrape(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_synced", "Synced on scrape")
        calls = []
        with MetricsExporter(
            registry=registry,
            prepare=lambda: (calls.append(1), gauge.set(len(calls))),
        ) as exporter:
            _get(exporter.port, "/metrics")
            _, _, body = _get(exporter.port, "/metrics")
        assert len(calls) == 2
        assert b"repro_synced 2" in body


class TestHealthz:
    def test_health_document(self, exporter):
        status, headers, body = _get(exporter.port, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {
            "ok": True, "pid": 1234, "uptime_seconds": 1.5,
        }

    def test_ok_without_health_callback(self):
        with MetricsExporter(registry=MetricsRegistry()) as exporter:
            _, _, body = _get(exporter.port, "/healthz")
        assert json.loads(body) == {"ok": True}


class TestEvents:
    def test_all_events(self, exporter):
        status, _, body = _get(exporter.port, "/events")
        document = json.loads(body)
        assert status == 200
        assert document["ok"] is True
        assert [e["name"] for e in document["events"]] == [
            "campaign.plan", "campaign.shard",
        ]

    def test_level_and_name_filters(self, exporter):
        _, _, body = _get(exporter.port, "/events?level=error")
        assert [e["name"] for e in json.loads(body)["events"]] == [
            "campaign.shard",
        ]
        _, _, body = _get(exporter.port, "/events?name=campaign.plan")
        assert [e["name"] for e in json.loads(body)["events"]] == [
            "campaign.plan",
        ]

    def test_limit_tails(self, exporter):
        _, _, body = _get(exporter.port, "/events?limit=1")
        assert [e["name"] for e in json.loads(body)["events"]] == [
            "campaign.shard",
        ]

    def test_bad_limit_is_400(self, exporter):
        for bad in ("nope", "-1"):
            status, _, body = _get(exporter.port, f"/events?limit={bad}")
            assert status == 400
            assert "limit must be a non-negative int" in json.loads(
                body
            )["message"]

    def test_bad_level_is_400(self, exporter):
        status, _, body = _get(exporter.port, "/events?level=loud")
        assert status == 400

    def test_404_without_event_ring(self):
        with MetricsExporter(registry=MetricsRegistry()) as exporter:
            status, _, body = _get(exporter.port, "/events")
        assert status == 404
        assert "no event ring" in json.loads(body)["message"]


class TestRouting:
    def test_unknown_path_lists_endpoints(self, exporter):
        status, _, body = _get(exporter.port, "/nope")
        assert status == 404
        message = json.loads(body)["message"]
        for endpoint in ("/metrics", "/healthz", "/events"):
            assert endpoint in message


class TestLifecycle:
    def test_port_before_start_raises(self):
        exporter = MetricsExporter(registry=MetricsRegistry())
        with pytest.raises(ExporterError, match="not started"):
            exporter.port

    def test_start_is_idempotent(self):
        exporter = MetricsExporter(registry=MetricsRegistry()).start()
        try:
            port = exporter.port
            assert exporter.start() is exporter
            assert exporter.port == port
        finally:
            exporter.close()

    def test_close_is_idempotent(self):
        exporter = MetricsExporter(registry=MetricsRegistry()).start()
        exporter.close()
        exporter.close()
        with pytest.raises(ExporterError):
            exporter.port

    def test_close_does_not_wait_out_the_default_poll(self):
        """socketserver's default ``serve_forever`` poll is 0.5 s, and
        ``shutdown()`` waits for the loop to notice: every close used to
        cost ~0.45 s.  The exporter polls faster."""
        exporter = MetricsExporter(registry=MetricsRegistry()).start()
        start = time.perf_counter()
        exporter.close()
        assert time.perf_counter() - start < 0.25

    def test_bind_failure_raises_exporter_error(self):
        with MetricsExporter(registry=MetricsRegistry()) as holder:
            taken = holder.port
            with pytest.raises(ExporterError, match="cannot bind"):
                MetricsExporter(
                    registry=MetricsRegistry(), port=taken
                ).start()


class TestMaybeExporter:
    def test_none_port_is_the_null_exporter(self):
        exporter = maybe_exporter(None, registry=MetricsRegistry())
        assert isinstance(exporter, NullExporter)
        assert exporter.enabled is False
        assert exporter.port is None

    def test_zero_port_is_a_started_ephemeral_bind(self):
        with maybe_exporter(0, registry=_registry()) as exporter:
            assert exporter.enabled is True
            assert exporter.port > 0
            status, _, _ = _get(exporter.port, "/healthz")
            assert status == 200

    def test_null_exporter_lifecycle_is_a_noop(self):
        exporter = NullExporter()
        assert exporter.start() is exporter
        exporter.close()
        with exporter as entered:
            assert entered is exporter
