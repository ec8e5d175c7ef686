"""Daemon integration: socket round trips, status counters, shutdown."""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.service.cache import ResultCache
from repro.service.client import ReproClient, ServiceError
from repro.service.server import ReproServer


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


class TestDaemonRoundTrip:
    def test_check_matches_cli_verdict(self, server, app_files, capsys):
        """Acceptance criterion: a daemon check returns the same verdict
        as ``repro check`` for the same source."""
        for path in app_files:
            cli_exit = main(["check", str(path)])
            capsys.readouterr()
            with ReproClient(server.socket_path) as client:
                response = client.check(path=str(path))
            assert response["ok"]
            assert response["self_stabilizing"] == (cli_exit == 0)

    def test_failing_source_agrees_with_cli(
        self, server, tmp_path, broken_source, capsys
    ):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        cli_exit = main(["check", str(bad)])
        capsys.readouterr()
        assert cli_exit == 1
        with ReproClient(server.socket_path) as client:
            response = client.check(source=broken_source)
        assert response["ok"]
        assert response["self_stabilizing"] is False
        assert response["error_count"] > 0

    def test_repeat_check_hits_cache_and_reports_timings(
        self, server, wind_source
    ):
        with ReproClient(server.socket_path) as client:
            first = client.check(source=wind_source)
            second = client.check(source=wind_source)
        assert not first["cached"]
        assert {"parse", "resolve", "typecheck", "check"} <= set(
            first["timings"]
        )
        assert second["cached"]

    def test_infer_round_trip(self, server, wind_source):
        from repro.apps import strip_location_annotations

        stripped = strip_location_annotations(wind_source)
        with ReproClient(server.socket_path) as client:
            response = client.infer(source=stripped)
        assert response["ok"]
        assert response["verified"] is True
        assert "@LATTICE(" in response["annotated_source"]


class TestStatusAndErrors:
    def test_status_counts_requests(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            client.check(source=wind_source)
            status = client.status()
        assert status["requests_served"] == 3
        assert status["op_counts"]["check"] == 2
        assert status["op_counts"]["status"] == 1
        assert status["uptime_seconds"] >= 0.0
        assert status["pool"]["cache"]["memory_hits"] >= 1

    def test_unknown_op_is_an_error(self, server):
        with ReproClient(server.socket_path) as client:
            response = client.request({"op": "frobnicate"})
        assert response["ok"] is False
        assert "unknown op" in response["message"]

    def test_front_end_error_is_reported_not_fatal(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            with pytest.raises(ServiceError):
                client.check(source="class {")
            # the daemon survived and still serves
            assert client.check(source=wind_source)["ok"]

    def test_malformed_json_line(self, server):
        with ReproClient(server.socket_path) as client:
            response = client.request({"op": "status"})
            assert response["ok"]
            client._sock.sendall(b"{never valid\n")
            line = client._reader.readline()
        import json

        error = json.loads(line)
        assert error["ok"] is False

    def test_check_needs_source_or_path(self, server):
        with ReproClient(server.socket_path) as client:
            response = client.request({"op": "check"})
        assert response["ok"] is False


class TestShutdown:
    def test_shutdown_stops_the_daemon(self, tmp_path):
        srv = ReproServer(tmp_path / "s.sock")
        thread = srv.start()
        with ReproClient(srv.socket_path) as client:
            response = client.shutdown()
        assert response["ok"] and response["stopping"]
        thread.join(timeout=5)
        assert not thread.is_alive()
        srv.close()

    def test_shutdown_does_not_wait_out_the_default_poll(self, tmp_path):
        """``shutdown()`` returns once ``serve_forever`` polls; the
        daemon polls well under socketserver's default 0.5 s."""
        srv = ReproServer(tmp_path / "s.sock")
        thread = srv.start()
        start = time.perf_counter()
        srv.shutdown()
        assert time.perf_counter() - start < 0.25
        thread.join(timeout=5)
        srv.close()


class TestResourceTelemetry:
    def test_status_metrics_carry_resource_gauges(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            response = client.request({"op": "status"})
        gauges = response["metrics"]["gauges"]
        assert gauges["repro_rss_bytes"] > 0
        assert gauges["repro_gc_collections_total"] >= 0
        assert gauges["repro_gc_pause_seconds_total"] >= 0.0
        # the configured cache reports both tiers plus the aggregate
        assert gauges["repro_cache_memory_entries"] >= 1
        assert gauges["repro_cache_memory_bytes"] > 0
        assert gauges["repro_cache_disk_entries"] >= 1
        assert gauges["repro_cache_bytes"] >= gauges[
            "repro_cache_memory_bytes"
        ]

    def test_prometheus_exposition_names_resource_gauges(
        self, server, wind_source
    ):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            text = client.metrics(format="prometheus")["metrics_text"]
        for name in ("repro_rss_bytes", "repro_gc_collections_total",
                     "repro_gc_pause_seconds_total", "repro_cache_bytes"):
            assert name in text

    def test_close_unregisters_gc_callback(self, tmp_path):
        import gc

        srv = ReproServer(tmp_path / "repro.sock")
        thread = srv.start()
        assert srv.resources._on_gc in gc.callbacks
        srv.shutdown()
        thread.join(timeout=5)
        srv.close()
        assert srv.resources._on_gc not in gc.callbacks
