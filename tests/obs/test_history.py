"""Bench history store: ingestion tolerance, trend series splitting,
the noise-aware changepoint detector, and the `bench trend` CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.bench import (
    BENCH_SPEC,
    BenchError,
    bench_payload,
    scenario_result_from_samples,
)
from repro.obs.events import EventBuffer, EventLog
from repro.obs.history import (
    HistoryWarning,
    bench_trend,
    detect_changepoints,
    env_key,
    format_trend_table,
    load_history,
    sparkline,
    trend_series,
)
from repro.service import protocol
from repro.obs.context import installed

PINNED_FINGERPRINT = {
    "python": "3.11.0",
    "implementation": "CPython",
    "platform": "Linux-golden",
    "machine": "x86_64",
    "cpu_count": 4,
    "git_sha": "0" * 40,
}


def _payload(created: str, scenarios: dict, *, git_sha: str = "0" * 40,
             fingerprint: dict | None = None) -> dict:
    """One bench payload; ``scenarios`` maps name -> list of samples."""
    results = [
        scenario_result_from_samples(
            name, "check", samples, counters={"ops": 2}, warmup=1
        )
        for name, samples in sorted(scenarios.items())
    ]
    print_ = dict(fingerprint or PINNED_FINGERPRINT, git_sha=git_sha)
    return bench_payload(
        results,
        suite="golden",
        warmup=1,
        repetitions=max(r["repetitions"] for r in results),
        fingerprint=print_,
        created_utc=created,
    )


def _point(median: float, stddev: float, *, file: str = "BENCH_x.json",
           created: str = "2026-01-01T00:00:00Z",
           git_sha: str = "0" * 40) -> dict:
    return {
        "file": file,
        "created_utc": created,
        "git_sha": git_sha,
        "median_seconds": median,
        "stddev_seconds": stddev,
        "repetitions": 3,
    }


def _seed_history(directory: Path) -> None:
    """Three well-formed payloads: a regression step on check/toy
    between run 2 and run 3, check/other flat throughout."""
    runs = [
        ("BENCH_a.json", "2026-01-01T00:00:00Z",
         {"check/toy": [1.0, 1.0, 1.0], "check/other": [0.5, 0.5, 0.5]}),
        ("BENCH_b.json", "2026-01-02T00:00:00Z",
         {"check/toy": [1.0, 1.01, 1.02], "check/other": [0.5, 0.5, 0.5]}),
        ("BENCH_c.json", "2026-01-03T00:00:00Z",
         {"check/toy": [2.0, 2.0, 2.0], "check/other": [0.5, 0.5, 0.5]}),
    ]
    for filename, created, scenarios in runs:
        BENCH_SPEC.write(_payload(created, scenarios), directory / filename)


class TestEnvKey:
    def test_stable_and_sha_insensitive(self):
        key = env_key(PINNED_FINGERPRINT)
        assert key == env_key(dict(PINNED_FINGERPRINT, git_sha="f" * 40))
        assert len(key) == 12

    def test_environment_change_changes_key(self):
        other = dict(PINNED_FINGERPRINT, python="3.12.0")
        assert env_key(other) != env_key(PINNED_FINGERPRINT)


class TestLoadHistory:
    def test_orders_by_created_then_filename(self, tmp_path):
        BENCH_SPEC.write(
            _payload("2026-01-02T00:00:00Z", {"check/toy": [1.0]}),
            tmp_path / "BENCH_older_name.json",
        )
        BENCH_SPEC.write(
            _payload("2026-01-01T00:00:00Z", {"check/toy": [1.0]}),
            tmp_path / "BENCH_z.json",
        )
        payloads, skipped = load_history(tmp_path)
        assert [name for name, _ in payloads] == [
            "BENCH_z.json", "BENCH_older_name.json",
        ]
        assert skipped == []

    def test_not_a_directory_raises(self, tmp_path):
        with pytest.raises(BenchError, match="not a directory"):
            load_history(tmp_path / "missing")

    def test_torn_and_wrong_schema_files_are_skipped(self, tmp_path):
        """Mirrors the JSONL readers' crash tolerance: one bad file
        warns and is recorded, the trend survives."""
        BENCH_SPEC.write(
            _payload("2026-01-01T00:00:00Z", {"check/toy": [1.0]}),
            tmp_path / "BENCH_good.json",
        )
        (tmp_path / "BENCH_torn.json").write_text('{"schema": 1, "kin')
        (tmp_path / "BENCH_alien.json").write_text(
            json.dumps({"schema": 999, "kind": "bench"})
        )
        buffer = EventBuffer(capacity=16)
        with installed(event_log=EventLog(sinks=(buffer,))):
            with pytest.warns(HistoryWarning):
                payloads, skipped = load_history(tmp_path)
        assert [name for name, _ in payloads] == ["BENCH_good.json"]
        assert sorted(s["file"] for s in skipped) == [
            "BENCH_alien.json", "BENCH_torn.json",
        ]
        assert all(s["reason"] for s in skipped)
        events = [e for e in buffer.records
                  if e["name"] == "bench.history.skipped"]
        assert len(events) == 2
        assert all(e["level"] == "warn" for e in events)


class TestTrendSeries:
    def test_one_series_per_scenario_environment(self, tmp_path):
        BENCH_SPEC.write(
            _payload("2026-01-01T00:00:00Z", {"check/toy": [1.0]}),
            tmp_path / "BENCH_a.json",
        )
        BENCH_SPEC.write(
            _payload(
                "2026-01-02T00:00:00Z", {"check/toy": [1.0]},
                fingerprint=dict(PINNED_FINGERPRINT, python="3.12.0"),
            ),
            tmp_path / "BENCH_b.json",
        )
        payloads, _ = load_history(tmp_path)
        series = trend_series(payloads)
        assert len(series) == 2  # same scenario, two environments
        assert {len(s["points"]) for s in series} == {1}
        assert {s["scenario"] for s in series} == {"check/toy"}

    def test_points_are_chronological(self, tmp_path):
        _seed_history(tmp_path)
        payloads, _ = load_history(tmp_path)
        (toy,) = [s for s in trend_series(payloads)
                  if s["scenario"] == "check/toy"]
        assert [p["file"] for p in toy["points"]] == [
            "BENCH_a.json", "BENCH_b.json", "BENCH_c.json",
        ]


class TestChangepoints:
    def test_step_regression_detected_once(self):
        points = [
            _point(1.0, 0.01), _point(1.0, 0.01),
            _point(2.0, 0.01, file="BENCH_step.json"),
            _point(2.0, 0.01), _point(2.0, 0.01),
        ]
        (cp,) = detect_changepoints(points)
        assert cp["index"] == 2
        assert cp["file"] == "BENCH_step.json"
        assert cp["direction"] == "regression"
        assert cp["delta_pct"] == pytest.approx(100.0)
        assert cp["baseline_median_seconds"] == pytest.approx(1.0)

    def test_improvement_direction(self):
        points = [_point(2.0, 0.01), _point(2.0, 0.01), _point(1.0, 0.01)]
        (cp,) = detect_changepoints(points)
        assert cp["direction"] == "improvement"
        assert cp["delta_pct"] == pytest.approx(-50.0)

    def test_shift_within_noise_envelope_ignored(self):
        # 20% shift, but the stddev envelope swallows it
        points = [_point(1.0, 0.15), _point(1.2, 0.15)]
        assert detect_changepoints(points) == []

    def test_shift_below_threshold_pct_ignored(self):
        # beyond noise, but only a 5% move
        points = [_point(1.0, 0.001), _point(1.05, 0.001)]
        assert detect_changepoints(points) == []
        assert len(detect_changepoints(points, threshold_pct=2.0)) == 1

    def test_segment_restarts_after_changepoint(self):
        """After a step the new level is the baseline: a return to the
        old level is itself a changepoint (an improvement)."""
        points = [
            _point(1.0, 0.01), _point(1.0, 0.01),
            _point(2.0, 0.01), _point(2.0, 0.01),
            _point(1.0, 0.01),
        ]
        cps = detect_changepoints(points)
        assert [cp["index"] for cp in cps] == [2, 4]
        assert [cp["direction"] for cp in cps] == [
            "regression", "improvement",
        ]

    def test_negative_threshold_rejected(self):
        with pytest.raises(BenchError, match="threshold_pct"):
            detect_changepoints([], threshold_pct=-1)


class TestBenchTrend:
    def test_trend_document(self, tmp_path):
        _seed_history(tmp_path)
        trend = bench_trend(tmp_path)
        assert trend["payloads"] == 3
        assert trend["files"] == [
            "BENCH_a.json", "BENCH_b.json", "BENCH_c.json",
        ]
        assert trend["skipped"] == []
        by_name = {s["scenario"]: s for s in trend["series"]}
        (cp,) = by_name["check/toy"]["changepoints"]
        assert cp["file"] == "BENCH_c.json"
        assert cp["direction"] == "regression"
        assert by_name["check/other"]["changepoints"] == []
        assert by_name["check/toy"]["net_delta_pct"] == pytest.approx(100.0)

    def test_format_table_deterministic(self, tmp_path):
        _seed_history(tmp_path)
        trend = bench_trend(tmp_path)
        table = format_trend_table(trend)
        assert table == format_trend_table(bench_trend(tmp_path))
        assert "check/toy" in table
        assert "+100.0%" in table
        assert "i2:+" in table  # the changepoint mark on the step run
        assert "1 regression changepoint(s)" in table

    def test_empty_history_renders_notice(self, tmp_path):
        table = format_trend_table(bench_trend(tmp_path))
        assert "no bench payloads" in table


class TestSparkline:
    def test_min_and_max_hit_the_ramp_ends(self):
        line = sparkline([1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_renders_mid_ramp(self):
        assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"

    def test_empty(self):
        assert sparkline([]) == ""


class TestTrendCli:
    def test_bench_trend_table(self, tmp_path, capsys):
        _seed_history(tmp_path)
        assert main(["bench", "trend", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "check/toy" in out and "changepoints" in out

    def test_bench_trend_json_envelope(self, tmp_path, capsys):
        _seed_history(tmp_path)
        assert main([
            "bench", "trend", "--history", str(tmp_path), "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == protocol.PROTOCOL_VERSION
        assert document["kind"] == "bench-trend"
        assert document["payloads"] == 3
        assert {s["scenario"] for s in document["series"]} == {
            "check/toy", "check/other",
        }

    def test_bench_trend_missing_directory_fails(self, tmp_path, capsys):
        assert main([
            "bench", "trend", "--history", str(tmp_path / "nope"),
        ]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_checked_in_history_renders(self, capsys):
        """The seeded benchmarks/history/ payloads must always produce a
        healthy trend table (the CI bench-smoke step relies on it)."""
        history = Path(__file__).resolve().parents[2] / "benchmarks/history"
        assert main(["bench", "trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "4 payload(s)" in out
        assert "0 file(s) skipped" in out
        # the seeded BENCH_run4.json carries memory telemetry, so a
        # fresh clone renders the memory series out of the box
        assert "mem trend" in out
        assert "point(s) with allocation telemetry" in out


def _mem_payload(created: str, scenarios: dict) -> dict:
    """One bench payload; ``scenarios`` maps name -> (samples, allocs);
    ``allocs=None`` leaves that scenario without a memory section."""
    import statistics

    results = []
    for name, (samples, allocs) in sorted(scenarios.items()):
        memory = None
        if allocs is not None:
            memory = {
                "peak_rss_bytes": 64 * 1048576,
                "alloc_per_rep_bytes": list(allocs),
                "alloc_peak_bytes": max(allocs),
                "alloc_median_bytes": float(statistics.median(allocs)),
                "alloc_stddev_bytes": (
                    float(statistics.stdev(allocs))
                    if len(allocs) > 1 else 0.0
                ),
                "gc_collections": 1,
                "gc_pause_seconds_total": 0.001,
            }
        results.append(scenario_result_from_samples(
            name, "check", samples, counters={"ops": 2}, warmup=1,
            memory=memory,
        ))
    return bench_payload(
        results,
        suite="golden",
        warmup=1,
        repetitions=max(r["repetitions"] for r in results),
        fingerprint=dict(PINNED_FINGERPRINT),
        created_utc=created,
    )


def _seed_memory_history(directory: Path) -> None:
    """Four payloads: the first predates memory telemetry, then a flat
    allocation series with a step regression on the last run.  Time
    stays flat throughout."""
    flat = [1.0, 1.0, 1.0]
    runs = [
        ("BENCH_a.json", "2026-01-01T00:00:00Z", (flat, None)),
        ("BENCH_b.json", "2026-01-02T00:00:00Z", (flat, [1000, 1000, 1000])),
        ("BENCH_c.json", "2026-01-03T00:00:00Z", (flat, [1005, 1010, 1000])),
        ("BENCH_d.json", "2026-01-04T00:00:00Z", (flat, [2000, 2000, 2000])),
    ]
    for filename, created, spec in runs:
        BENCH_SPEC.write(
            _mem_payload(created, {"check/toy": spec}),
            directory / filename,
        )


class TestMemoryTrend:
    def test_points_carry_memory_fields(self, tmp_path):
        _seed_memory_history(tmp_path)
        payloads, _ = load_history(tmp_path)
        (entry,) = trend_series(payloads)
        points = entry["points"]
        assert [p["alloc_median_bytes"] for p in points] == [
            None, 1000.0, 1005.0, 2000.0,
        ]
        assert points[0]["peak_rss_bytes"] is None
        assert points[1]["peak_rss_bytes"] == 64 * 1048576
        assert points[1]["alloc_stddev_bytes"] == 0.0

    def test_memory_step_detected_with_index_remapped(self, tmp_path):
        """The allocation step on run d must be flagged even though the
        memory subseries skips the telemetry-free first payload — the
        changepoint index refers to the full point list."""
        _seed_memory_history(tmp_path)
        trend = bench_trend(tmp_path)
        (entry,) = trend["series"]
        assert entry["changepoints"] == []  # time stayed flat
        (cp,) = entry["memory_changepoints"]
        assert cp["file"] == "BENCH_d.json"
        assert cp["direction"] == "regression"
        assert cp["index"] == 3  # position among all four points
        assert entry["memory_points"] == 3
        assert entry["net_memory_delta_pct"] == pytest.approx(100.0)

    def test_memoryless_history_has_no_memory_series(self, tmp_path):
        _seed_history(tmp_path)
        trend = bench_trend(tmp_path)
        for entry in trend["series"]:
            assert entry["memory_changepoints"] == []
            assert entry["memory_points"] == 0
            assert entry["net_memory_delta_pct"] is None

    def test_format_table_memory_columns_are_conditional(self, tmp_path):
        _seed_memory_history(tmp_path)
        table = format_trend_table(bench_trend(tmp_path))
        assert "mem trend" in table
        assert "mem changepoints" in table
        assert "point(s) with allocation telemetry" in table

        plain_dir = tmp_path / "plain"
        plain_dir.mkdir()
        _seed_history(plain_dir)
        plain = format_trend_table(bench_trend(plain_dir))
        assert "mem trend" not in plain
        assert "allocation telemetry" not in plain


class TestScenarioFilter:
    def test_filter_to_one_scenario(self, tmp_path):
        _seed_history(tmp_path)
        trend = bench_trend(tmp_path, scenarios=["check/toy"])
        assert [s["scenario"] for s in trend["series"]] == ["check/toy"]

    def test_unknown_scenario_names_available_series(self, tmp_path):
        _seed_history(tmp_path)
        with pytest.raises(BenchError, match="no history for scenario"):
            bench_trend(tmp_path, scenarios=["check/nope"])
        try:
            bench_trend(tmp_path, scenarios=["check/nope"])
        except BenchError as exc:
            assert "check/other" in str(exc)
            assert "check/toy" in str(exc)

    def test_trend_cli_scenario_flag(self, tmp_path, capsys):
        _seed_history(tmp_path)
        assert main([
            "bench", "trend", "--history", str(tmp_path),
            "--scenario", "check/other",
        ]) == 0
        out = capsys.readouterr().out
        assert "check/other" in out
        assert "check/toy" not in out

    def test_trend_cli_unknown_scenario_exits_2(self, tmp_path, capsys):
        _seed_history(tmp_path)
        assert main([
            "bench", "trend", "--history", str(tmp_path),
            "--scenario", "check/nope",
        ]) == 2
        assert "no history for scenario" in capsys.readouterr().err
