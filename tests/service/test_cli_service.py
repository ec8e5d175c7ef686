"""CLI surface of the service: ``batch``, ``--json``, golden output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import programs_dir
from repro.cli import main
from repro.service import protocol

GOLDEN_DIR = Path(__file__).parent / "golden"
PROGRAMS = str(programs_dir())
WIND = str(programs_dir() / "wind_sensor.sj")
N_PROGRAMS = len(list(programs_dir().glob("*.sj")))

#: Fields that vary run-to-run / machine-to-machine.
VOLATILE = ("file", "elapsed_seconds", "timings")


class TestCheckJson:
    def test_golden_output(self, capsys):
        """``repro check --json`` output matches the documented schema,
        byte-for-byte up to the volatile fields."""
        assert main(["check", WIND, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        protocol.CHECK_SPEC.validate(payload)
        assert payload["version"] == protocol.PROTOCOL_VERSION
        for volatile in VOLATILE:
            payload.pop(volatile, None)
        golden = json.loads(
            (GOLDEN_DIR / "wind_sensor.check.json").read_text()
        )
        assert payload == golden

    def test_failing_program_json(self, tmp_path, broken_source, capsys):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        assert main(["check", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        protocol.CHECK_SPEC.validate(payload)
        assert payload["self_stabilizing"] is False
        assert payload["error_count"] > 0
        kinds = {d["check"] for d in payload["report"]["diagnostics"]}
        assert "flow-down" in kinds


class TestInferJson:
    def test_summary_payload(self, tmp_path, capsys):
        from repro.apps import app_source

        stripped = tmp_path / "stripped.sj"
        stripped.write_text(app_source("wind_sensor", annotated=False))
        assert main(["infer", str(stripped), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "infer"
        assert payload["version"] == protocol.PROTOCOL_VERSION
        assert payload["verified"] is True
        assert payload["summary"]["total_locations"] > 0


class TestBatch:
    def test_batch_over_bundled_apps(self, tmp_path, capsys):
        """Acceptance criterion: ``repro batch src/repro/apps/programs``
        checks every bundled app with per-file verdicts and timings."""
        assert main([
            "batch", PROGRAMS, "--cache-dir", str(tmp_path)
        ]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == N_PROGRAMS + 2  # files + summary + cache stats
        assert all("pass" in line for line in lines[:N_PROGRAMS])
        assert all("ms" in line for line in lines[:N_PROGRAMS])
        assert f"{N_PROGRAMS}/{N_PROGRAMS} self-stabilizing" in lines[-2]
        assert lines[-1].startswith("// cache:")
        assert f"{N_PROGRAMS} stores" in lines[-1]

    def test_warm_batch_reports_cache_hits(self, tmp_path, capsys):
        assert main(["batch", PROGRAMS, "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["batch", PROGRAMS, "--cache-dir", str(tmp_path)]) == 0
        cache_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert (f"{N_PROGRAMS} disk hits" in cache_line
                or f"{N_PROGRAMS} memory hits" in cache_line)
        assert "0 misses" in cache_line

    def test_second_run_hits_cache(self, tmp_path, capsys):
        assert main(["batch", PROGRAMS, "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["batch", PROGRAMS, "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{N_PROGRAMS} from cache" in out

    def test_batch_json(self, tmp_path, capsys):
        assert main([
            "batch", PROGRAMS, "--no-cache", "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "batch"
        assert len(payload["results"]) == N_PROGRAMS
        assert all(r["verdict"] == "pass" for r in payload["results"])

    def test_failing_file_fails_the_batch(self, tmp_path, broken_source, capsys):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        assert main(["batch", str(bad), "--no-cache"]) == 1
        assert "fail" in capsys.readouterr().out

    def test_no_files_found(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path)]) == 2

    def test_explicit_files_and_dirs_mix(self, tmp_path, capsys):
        assert main(["batch", WIND, "--no-cache"]) == 0
        assert "1/1 self-stabilizing" in capsys.readouterr().out
