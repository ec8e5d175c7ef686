"""CLI observability surface: ``--trace``, ``--profile``, ``repro metrics``."""

from __future__ import annotations

import json
import re

from repro.apps import programs_dir
from repro.cli import main
from repro.obs import NullTracer
from repro.obs.context import instruments
from repro.obs.sinks import SPAN_SPEC

WIND = str(programs_dir() / "wind_sensor.sj")


class TestProfile:
    def test_check_profile_phases_cover_the_root(self, capsys):
        """Acceptance criterion: ``repro check --profile`` prints a span
        tree whose top-level phase durations sum to ≥90% of the root."""
        assert main(["check", WIND, "--profile"]) == 0
        err = capsys.readouterr().err
        lines = err.splitlines()
        root_line = next(line for line in lines if line.startswith("repro.check"))
        assert "100.0%" in root_line
        phase_pcts = [
            float(match.group(1))
            for line in lines
            if line.startswith(("├─", "└─"))
            for match in [re.search(r"(\d+\.\d)%", line)]
            if match
        ]
        assert phase_pcts, f"no phase lines in:\n{err}"
        assert sum(phase_pcts) >= 90.0

    def test_profile_leaves_no_tracer_installed(self, capsys):
        assert main(["check", WIND, "--profile"]) == 0
        assert isinstance(instruments().tracer, NullTracer)

    def test_infer_profile_shows_engine_phases(self, capsys):
        assert main(["infer", WIND, "--quiet", "--profile"]) == 0
        err = capsys.readouterr().err
        for phase in ("value_flow", "cycle_elimination", "emit"):
            assert phase in err


class TestTraceFlag:
    def test_check_trace_writes_valid_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "check.jsonl"
        assert main(["check", WIND, "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert f"// trace written to {trace}" in err
        events = SPAN_SPEC.read_lines(trace, required=True)
        names = {event["name"] for event in events}
        assert {"repro.check", "parse", "check"} <= names
        roots = [e for e in events if e["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "repro.check"

    def test_batch_trace_has_batch_root(self, tmp_path, capsys):
        trace = tmp_path / "batch.jsonl"
        assert main([
            "batch", WIND, "--no-cache", "--trace", str(trace)
        ]) == 0
        events = SPAN_SPEC.read_lines(trace, required=True)
        roots = [e for e in events if e["parent_id"] is None]
        assert [r["name"] for r in roots] == ["repro.batch"]
        assert roots[0]["attrs"]["files"] == 1


class TestMetricsCommand:
    def _trace(self, tmp_path) -> str:
        trace = tmp_path / "t.jsonl"
        assert main(["check", WIND, "--trace", str(trace)]) == 0
        return str(trace)

    def test_aggregates_a_trace_file(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "span events" in out
        assert "repro.check" in out
        assert "parse" in out

    def test_json_format(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "--trace", trace, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0
        names = {row["name"] for row in payload["spans"]}
        assert "repro.check" in names

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["metrics"]) == 2
        trace = self._trace(tmp_path)
        assert main(["metrics", "--trace", trace, "--socket", "/x"]) == 2

    def test_prometheus_needs_a_socket(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main([
            "metrics", "--trace", trace, "--format", "prometheus"
        ]) == 2

    def test_invalid_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{torn\n")
        assert main(["metrics", "--trace", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_unreachable_daemon_exits_2(self, tmp_path, capsys):
        assert main([
            "metrics", "--socket", str(tmp_path / "nope.sock")
        ]) == 2
        assert "error" in capsys.readouterr().err


class TestInferJsonTimings:
    def test_infer_json_reports_engine_phases(self, capsys):
        assert main(["infer", WIND, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        timings = payload["timings"]
        assert {"value_flow", "decompose", "emit", "total"} <= set(timings)
