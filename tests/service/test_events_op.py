"""The daemon's ``events`` op, its event-log lifecycle, and the
socket-mode CLI paths (``repro metrics --socket``, ``repro events
--socket``) end-to-end against a live daemon."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.events import NullEventLog
from repro.service.cache import ResultCache
from repro.service.client import ReproClient, ServiceError
from repro.service.server import ReproServer
from repro.obs.events import EVENT_SPEC
from repro.obs.context import instruments


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


class TestEventsOp:
    def test_startup_and_requests_appear(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            response = client.events()
        names = [e["name"] for e in response["events"]]
        assert names[0] == "daemon.start"
        assert "daemon.request" in names
        ops = [
            e["attrs"]["op"] for e in response["events"]
            if e["name"] == "daemon.request"
        ]
        assert "check" in ops

    def test_request_events_correlate_with_op_spans(
        self, server, wind_source
    ):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            response = client.events()
        request_events = [
            e for e in response["events"] if e["name"] == "daemon.request"
        ]
        roots = {
            root.span_id: root for root in server.trace_buffer.roots
        }
        for event in request_events:
            assert event["trace_id"] is not None
            assert event["span_id"] in roots
            assert roots[event["span_id"]].name == \
                f"op.{event['attrs']['op']}"

    def test_events_op_does_not_log_itself(self, server):
        with ReproClient(server.socket_path) as client:
            client.events()
            response = client.events()
        ops = [
            e["attrs"]["op"] for e in response["events"]
            if e["name"] == "daemon.request"
        ]
        assert "events" not in ops

    def test_level_floor_and_name_filter(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            info_only = client.events(level="info")["events"]
            by_name = client.events(name="daemon.start")["events"]
        assert all(e["level"] != "debug" for e in info_only)
        assert [e["name"] for e in by_name] == ["daemon.start"]

    def test_limit_keeps_the_tail(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            client.status()
            limited = client.events(limit=1)["events"]
            everything = client.events()["events"]
        assert len(limited) == 1
        assert limited[0] == everything[-1]

    def test_bad_level_rejected(self, server):
        with ReproClient(server.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown event level"):
                client.events(level="loud")

    def test_bad_limit_rejected(self, server):
        with ReproClient(server.socket_path) as client:
            with pytest.raises(ServiceError, match="limit"):
                client.events(limit=-1)

    def test_records_validate_as_event_envelopes(self, server):

        with ReproClient(server.socket_path) as client:
            client.status()
            response = client.events()
        assert response["events"]
        for record in response["events"]:
            EVENT_SPEC.validate(record)


class TestEventLogLifecycle:
    def test_server_installs_and_close_restores_event_log(self, tmp_path):
        before = instruments().event_log
        assert isinstance(before, NullEventLog)
        srv = ReproServer(tmp_path / "a.sock")
        try:
            assert instruments().event_log is srv.event_log
        finally:
            srv.close()
        assert instruments().event_log is before


class TestSocketCli:
    def test_metrics_socket_text_end_to_end(
        self, server, wind_source, capsys
    ):
        """Satellite acceptance: ``repro metrics`` in socket mode against
        a live daemon."""
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
        assert main(["metrics", "--socket", server.socket_path]) == 0
        out = capsys.readouterr().out
        assert "repro_op_check_total" in out
        assert "repro_pool_exec_seconds" in out

    def test_metrics_socket_json_end_to_end(
        self, server, wind_source, capsys
    ):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
        assert main([
            "metrics", "--socket", server.socket_path, "--format", "json",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["repro_op_check_total"] == 1
        assert "repro_pool_exec_seconds" in snapshot["histograms"]

    def test_metrics_socket_prometheus_end_to_end(self, server, capsys):
        assert main([
            "metrics", "--socket", server.socket_path,
            "--format", "prometheus",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out

    def test_metrics_dead_socket_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "metrics", "--socket", str(tmp_path / "nowhere.sock"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_events_socket_end_to_end(self, server, wind_source, capsys):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
        assert main([
            "events", "--socket", server.socket_path, "--level", "info",
        ]) == 0
        captured = capsys.readouterr()
        assert "daemon.start" in captured.out
        assert "events shown" in captured.err

    def test_events_socket_json_envelopes(self, server, capsys):
        assert main([
            "events", "--socket", server.socket_path, "--json",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines

        for line in lines:
            EVENT_SPEC.validate(json.loads(line))

    def test_events_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["events"]) == 2
        assert main([
            "events", str(tmp_path / "x.jsonl"),
            "--socket", str(tmp_path / "s.sock"),
        ]) == 2
