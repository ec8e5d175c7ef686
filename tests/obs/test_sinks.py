"""Sinks, renderers, and the pinned JSONL trace schema."""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path

import pytest

from repro.obs import (
    JsonlTraceWriter,
    RingBufferSink,
    TraceError,
    TraceWarning,
    Tracer,
    aggregate_trace,
    format_aggregate_table,
    format_forest,
    format_tree,
    orphan_events,
    trace_root_seconds,
)
from repro.obs.events import EVENT_SPEC
from repro.obs.sinks import SPAN_SPEC

GOLDEN = Path(__file__).parent / "golden" / "trace.golden.jsonl"


def _counting_clock(step: float):
    counter = itertools.count()
    return lambda: next(counter) * step


def _write_reference_trace(path: Path) -> None:
    """The reference span tree behind the golden file — deterministic
    because both clocks are injected counters."""
    with JsonlTraceWriter(path) as writer:
        tracer = Tracer(
            sinks=(writer,),
            wall_clock=_counting_clock(1.0),
            cpu_clock=_counting_clock(0.5),
        )
        with tracer.span("repro.check", file="wind_sensor.sj") as root:
            root.count("diagnostics", 0)
            with tracer.span("parse"):
                pass
            with tracer.span("check") as check:
                check.count("methods", 3)
                with tracer.span("flow_check"):
                    pass


class TestRingBuffer:
    def test_keeps_roots_only(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=(sink,))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [s.name for s in sink.roots] == ["root"]

    def test_capacity_drops_oldest(self):
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sinks=(sink,))
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.name for s in sink.roots] == ["b", "c"]

    def test_clear(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=(sink,))
        with tracer.span("a"):
            pass
        sink.clear()
        assert sink.roots == []


class TestJsonlWriter:
    def test_one_valid_event_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            tracer = Tracer(sinks=(writer,))
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            SPAN_SPEC.validate(json.loads(line))
        # children close first; the root is the last event
        assert json.loads(lines[-1])["parent_id"] is None

    def test_appends_across_writers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            with JsonlTraceWriter(path) as writer:
                tracer = Tracer(sinks=(writer,))
                with tracer.span("run"):
                    pass
        assert len(path.read_text().splitlines()) == 2

    def test_concurrent_writes_never_interleave_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            tracer = Tracer(sinks=(writer,))

            def work():
                for _ in range(50):
                    with tracer.span("w", payload="x" * 200):
                        pass

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        events = SPAN_SPEC.read_lines(path)  # raises if any line is torn
        assert len(events) == 200

    def test_emit_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        tracer = Tracer(sinks=(writer,))
        writer.close()
        with tracer.span("late"):
            pass
        assert path.read_text() == ""


class TestFormatTree:
    def test_percentages_relative_to_root(self):
        tracer = Tracer(
            wall_clock=_counting_clock(1.0), cpu_clock=_counting_clock(0.5)
        )
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        rendered = format_tree(root)
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert "100.0%" in lines[0]
        assert "└─ child" in lines[1]
        # child: 1 tick of a 3-tick root
        assert "33.3%" in lines[1]

    def test_attrs_and_counters_rendered(self):
        tracer = Tracer()
        with tracer.span("root", file="x.sj") as root:
            root.count("steps", 7)
        rendered = format_tree(root)
        assert "file=x.sj" in rendered
        assert "steps=7" in rendered


class TestTraceValidation:
    def test_reference_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        events = SPAN_SPEC.read_lines(path, required=True)
        assert len(events) == 4
        by_name = {event["name"]: event for event in events}
        assert by_name["repro.check"]["parent_id"] is None
        assert by_name["flow_check"]["parent_id"] == by_name["check"]["span_id"]

    def test_golden_trace_is_byte_stable(self, tmp_path):
        """Pins the JSONL wire schema documented in
        docs/OBSERVABILITY.md: key set, key order, value encoding."""
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="no span events"):
            SPAN_SPEC.read_lines(path, required=True)

    def test_unrooted_trace_warns_but_survives(self, tmp_path):
        """A run killed mid-span leaves children whose root never
        closed.  That partial trace is evidence, not garbage: validation
        warns and returns the events instead of rejecting them (the
        renderer groups the orphans under a synthetic root)."""
        path = tmp_path / "torn.jsonl"
        _write_reference_trace(path)
        events = SPAN_SPEC.read_lines(path)
        torn = [e for e in events if e["parent_id"] is not None]
        path.write_text(
            "\n".join(json.dumps(e) for e in torn) + "\n"
        )
        with pytest.warns(TraceWarning, match="orphaned span"):
            survivors = SPAN_SPEC.read_lines(path, required=True)
        assert len(survivors) == len(torn)
        assert orphan_events(survivors)

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TraceError, match="invalid JSON"):
            SPAN_SPEC.read_lines(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": 1, "event": "span"}) + "\n")
        with pytest.raises(TraceError, match="missing keys"):
            SPAN_SPEC.read_lines(path)

    def test_wrong_schema_rejected(self):
        with pytest.raises(TraceError, match="unsupported trace schema"):
            SPAN_SPEC.validate({
                "schema": 999, "event": "span", "trace_id": "t1",
                "span_id": 1, "parent_id": None, "name": "x",
                "start_seconds": 0, "duration_seconds": 0,
                "cpu_seconds": 0, "attrs": {}, "counters": {},
            })


class TestTruncatedTail:
    """A writer killed mid-``os.write`` leaves a final line without a
    trailing newline; the reader skips it with a warning instead of
    rejecting every complete line before it."""

    def _truncate_tail(self, path: Path, keep: int) -> None:
        text = path.read_text()
        lines = text.splitlines()
        torn = lines[-1][:keep]  # cut mid-JSON, drop the newline
        path.write_text("\n".join(lines[:-1]) + "\n" + torn)

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        complete = len(SPAN_SPEC.read_lines(path))
        self._truncate_tail(path, keep=20)
        with pytest.warns(TraceWarning, match="truncated final line"):
            events = SPAN_SPEC.read_lines(path)
        assert len(events) == complete - 1

    def test_valid_unterminated_final_line_still_returned(self, tmp_path):
        # The write made it out entirely except for... nothing: the JSON
        # is complete, only the newline is missing.  Keep it.
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        complete = len(SPAN_SPEC.read_lines(path))
        path.write_text(path.read_text().rstrip("\n"))
        events = SPAN_SPEC.read_lines(path)
        assert len(events) == complete

    def test_corrupt_terminated_line_still_raises(self, tmp_path):
        # Corruption on a newline-terminated line was a complete write:
        # that is real damage, not a crashed writer.
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            SPAN_SPEC.read_lines(path)

    def test_truncated_validation_failure_also_skipped(self, tmp_path):
        # The tail parses as JSON but fails schema validation (e.g. the
        # attrs object was cut off and braces happened to balance) —
        # same treatment as a parse failure.
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        complete = len(SPAN_SPEC.read_lines(path))
        path.write_text(
            path.read_text() + json.dumps({"schema": 1, "event": "span"})
        )
        with pytest.warns(TraceWarning, match="truncated final line"):
            events = SPAN_SPEC.read_lines(path)
        assert len(events) == complete

    def test_events_reader_shares_the_tolerance(self, tmp_path):
        from repro.obs import EventLog, JsonlEventWriter

        path = tmp_path / "events.jsonl"
        with JsonlEventWriter(path) as writer:
            log = EventLog(sinks=(writer,))
            log.emit("one")
            log.emit("two")
        self._truncate_tail(path, keep=10)
        with pytest.warns(TraceWarning, match="truncated final line"):
            records = EVENT_SPEC.read_lines(path)
        assert [r["name"] for r in records] == ["one"]


class TestAggregate:
    def test_sums_by_name_sorted_by_wall(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        _write_reference_trace(path)  # appends a second identical tree
        rows = aggregate_trace(SPAN_SPEC.read_lines(path))
        assert rows[0]["name"] == "repro.check"  # widest span first
        by_name = {row["name"]: row for row in rows}
        assert by_name["parse"]["count"] == 2
        assert by_name["check"]["counters"] == {"methods": 6}
        assert by_name["parse"]["mean_seconds"] == pytest.approx(
            by_name["parse"]["wall_seconds"] / 2
        )

    def test_self_time_excludes_direct_children(self, tmp_path):
        # reference tree (counting clock, step 1s): root 7s with
        # children parse (1s) and check (3s); check holds flow_check
        # (1s).  Exclusive times: root 3, check 2, parse 1, flow 1.
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        rows = aggregate_trace(SPAN_SPEC.read_lines(path))
        by_name = {row["name"]: row for row in rows}
        assert by_name["repro.check"]["self_seconds"] == pytest.approx(3.0)
        assert by_name["check"]["self_seconds"] == pytest.approx(2.0)
        assert by_name["parse"]["self_seconds"] == pytest.approx(1.0)
        assert by_name["flow_check"]["self_seconds"] == pytest.approx(1.0)

    def test_self_times_sum_to_root_wall(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        _write_reference_trace(path)
        events = SPAN_SPEC.read_lines(path)
        rows = aggregate_trace(events)
        assert sum(row["self_seconds"] for row in rows) == pytest.approx(
            trace_root_seconds(events)
        )
        assert trace_root_seconds(events) == pytest.approx(14.0)

    def test_rows_sorted_by_self_time_then_name(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        rows = aggregate_trace(SPAN_SPEC.read_lines(path))
        keys = [(-row["self_seconds"], row["name"]) for row in rows]
        assert keys == sorted(keys)
        # parse and flow_check tie at 1s self: name breaks the tie
        tied = [row["name"] for row in rows if row["self_seconds"] == 1.0]
        assert tied == sorted(tied)


class TestAggregateTable:
    def test_renders_deterministically(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        events = SPAN_SPEC.read_lines(path)
        rows = aggregate_trace(events)
        first = format_aggregate_table(rows, total_seconds=7.0)
        second = format_aggregate_table(
            aggregate_trace(SPAN_SPEC.read_lines(path)), total_seconds=7.0
        )
        assert first == second
        header, *body = first.splitlines()
        assert "self ms" in header and "self%" in header
        assert len(body) == len(rows)

    def test_counters_render_as_stable_ints(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_reference_trace(path)
        rows = aggregate_trace(SPAN_SPEC.read_lines(path))
        table = format_aggregate_table(rows)
        assert "methods=3" in table
        assert "methods=3.0" not in table
