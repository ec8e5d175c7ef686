"""CLI surface of the observatory: ``--events``/``--log-level``,
``repro events`` on files, and ``repro report``."""

from __future__ import annotations

import json
import logging

import pytest

from repro.apps import programs_dir
from repro.cli import main
from repro.obs.events import (
    EVENT_SPEC,
    NullEventLog,
)
from repro.obs.context import instruments
from repro.obs.sinks import SPAN_SPEC

WIND = str(programs_dir() / "wind_sensor.sj")

CAMPAIGN_ARGS = [
    "campaign", "--apps", "wind_sensor", "--trials", "4", "--strata", "2",
    "--iterations", "8", "--shard-size", "2", "--seed", "1",
]


class TestEventsFlag:
    def test_inject_writes_events_jsonl(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main([
            "--log-level", "debug", "inject", WIND,
            "--trials", "2", "--iterations", "8",
            "--events", str(events_path),
        ]) == 0
        records = EVENT_SPEC.read_lines(events_path, required=True)
        names = {r["name"] for r in records}
        assert "trial.corrupted" in names
        assert "runtime.iteration" in names
        assert f"// events written to {events_path}" in \
            capsys.readouterr().err

    def test_default_level_omits_debug_events(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main([
            "inject", WIND, "--trials", "2", "--iterations", "8",
            "--events", str(events_path),
        ]) == 0
        records = EVENT_SPEC.read_lines(events_path, required=True)
        assert all(r["level"] != "debug" for r in records)

    def test_campaign_events_cover_plan_and_shards(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(CAMPAIGN_ARGS + [
            "--checkpoint", str(tmp_path / "m.json"),
            "--events", str(events_path),
        ]) == 0
        capsys.readouterr()
        names = [r["name"] for r in EVENT_SPEC.read_lines(events_path)]
        assert names.count("campaign.plan") == 1
        assert names.count("campaign.shard") == 2

    def test_trace_and_events_correlate(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        assert main(CAMPAIGN_ARGS + [
            "--checkpoint", str(tmp_path / "m.json"),
            "--events", str(events_path),
            "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()

        span_ids = {e["span_id"] for e in SPAN_SPEC.read_lines(trace_path)}
        correlated = [
            r for r in EVENT_SPEC.read_lines(events_path)
            if r["trace_id"] is not None
        ]
        assert correlated
        assert {r["span_id"] for r in correlated} <= span_ids

    def test_no_flags_leaves_null_log(self, capsys):
        assert main([
            "inject", WIND, "--trials", "2", "--iterations", "8",
        ]) == 0
        capsys.readouterr()
        assert isinstance(instruments().event_log, NullEventLog)

    def test_log_level_bridges_to_stdlib_logging(self, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            assert main([
                "--log-level", "info", "inject", WIND,
                "--trials", "2", "--iterations", "8",
            ]) == 0
        capsys.readouterr()
        assert any(
            r.name.startswith("repro.trial.") for r in caplog.records
        )


class TestEventsCommand:
    def _events_file(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        main([
            "--log-level", "debug", "inject", WIND,
            "--trials", "2", "--iterations", "8",
            "--events", str(events_path),
        ])
        capsys.readouterr()
        return events_path

    def test_tail_and_level_filter(self, tmp_path, capsys):
        events_path = self._events_file(tmp_path, capsys)
        assert main([
            "events", str(events_path), "--level", "info", "--tail", "3",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        assert "/3 events shown" not in captured.out  # stats go to stderr
        assert "events shown" in captured.err

    def test_json_envelopes(self, tmp_path, capsys):
        events_path = self._events_file(tmp_path, capsys)
        assert main([
            "events", str(events_path), "--name", "trial.", "--json",
        ]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            record = json.loads(line)
            assert record["name"].startswith("trial.")

    def test_invalid_stream_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1}\n')
        assert main(["events", str(bad)]) == 2
        assert "invalid event stream" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["events", str(tmp_path / "none.jsonl")]) == 2


class TestReportCommand:
    def test_campaign_to_html_end_to_end(self, tmp_path, capsys):
        """Acceptance: ``repro campaign … && repro report --html`` yields
        a dashboard whose convergence curves end at the recorded
        recovery distances, byte-stable across re-renders."""
        checkpoint = tmp_path / "m.json"
        events_path = tmp_path / "events.jsonl"
        assert main(CAMPAIGN_ARGS + [
            "--checkpoint", str(checkpoint),
            "--events", str(events_path),
        ]) == 0
        out_a = tmp_path / "a.html"
        out_b = tmp_path / "b.html"
        for out in (out_a, out_b):
            assert main([
                "report", "--campaign", str(checkpoint),
                "--events", str(events_path), "--html", str(out),
            ]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        page = out_a.read_text()
        import re

        curves = re.findall(
            r'data-final="(\d+)"[^>]*data-recovery-samples="(\d+)"', page
        )
        assert curves
        assert all(final == recorded for final, recorded in curves)
        manifest = json.loads(checkpoint.read_text())
        recovered = [
            t for s in manifest["shards"].values()
            for t in s.get("trials", [])
            if t["verdict"] == "recovered"
        ]
        assert len(curves) == len(recovered)

    def test_generated_at_is_opt_in(self, tmp_path, capsys):
        checkpoint = tmp_path / "m.json"
        assert main(CAMPAIGN_ARGS + ["--checkpoint", str(checkpoint)]) == 0
        out = tmp_path / "r.html"
        assert main([
            "report", "--campaign", str(checkpoint), "--html", str(out),
            "--generated-at", "2026-02-03T04:05:06Z",
        ]) == 0
        capsys.readouterr()
        assert "Generated: 2026-02-03T04:05:06Z" in out.read_text()

    def test_no_inputs_is_a_usage_error(self, tmp_path, capsys):
        assert main(["report", "--html", str(tmp_path / "r.html")]) == 2
        assert "at least one input" in capsys.readouterr().err

    def test_invalid_events_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1}\n')
        assert main([
            "report", "--events", str(bad),
            "--html", str(tmp_path / "r.html"),
        ]) == 2
        assert "invalid event stream" in capsys.readouterr().err
