"""Cross-process trace propagation: traceparent framing, remote-parent
adoption, the worker tracer, and the merge that stitches per-worker
files into one causally-linked multi-process trace."""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path

import pytest

from repro.obs import (
    JsonlTraceWriter,
    NullTracer,
    PropagationError,
    TraceContext,
    TraceWarning,
    Tracer,
    aggregate_trace,
    build_forest,
    current_context,
    format_forest,
    merge_traces,
    orphan_events,
    shard_trace_payload,
    span_event,
    trace_root_seconds,
    worker_traced,
)
from repro.obs.exporter import NullExporter
from repro.obs.propagate import reset_worker_tracers
from repro.obs.context import installed, instruments
from repro.obs.sinks import SPAN_SPEC

GOLDEN = Path(__file__).parent / "golden" / "merged_trace.golden.jsonl"


def _counting_clock(step: float):
    counter = itertools.count()
    return lambda: next(counter) * step


class TestTraceContext:
    def test_round_trip(self):
        context = TraceContext(trace_id="t1", span_id=7)
        header = context.to_traceparent()
        assert header == "00-t1-7-01"
        assert TraceContext.from_traceparent(header) == context

    @pytest.mark.parametrize("header,match", [
        ("00-t1-7", "4 '-'-separated fields"),
        ("00-t1-7-01-extra", "4 '-'-separated fields"),
        ("99-t1-7-01", "version"),
        ("00-t1-7-00", "flags"),
        ("00--7-01", "non-empty"),
        ("00-t1-seven-01", "must be an int"),
    ])
    def test_malformed_rejected(self, header, match):
        with pytest.raises(PropagationError, match=match):
            TraceContext.from_traceparent(header)

    def test_non_string_rejected(self):
        with pytest.raises(PropagationError, match="must be a string"):
            TraceContext.from_traceparent({"trace_id": "t1"})


class TestCurrentContext:
    def test_none_without_a_span(self):
        assert isinstance(instruments().tracer, NullTracer)
        assert current_context() is None

    def test_snapshots_the_active_span(self):
        tracer = Tracer()
        with installed(tracer=tracer):
            assert current_context() is None
            with tracer.span("outer") as outer:
                context = current_context()
                assert context == TraceContext(outer.trace_id, outer.span_id)
            assert current_context() is None


class TestAttached:
    def test_root_adopts_remote_context(self):
        tracer = Tracer()
        remote = TraceContext(trace_id="t9", span_id=42)
        with tracer.attached(remote):
            with tracer.span("worker.shard") as span:
                pass
        assert span.trace_id == "t9"
        assert span.remote_parent == 42
        assert span.parent is None  # still a local root

    def test_non_roots_untouched(self):
        tracer = Tracer()
        with tracer.attached(TraceContext("t9", 42)):
            with tracer.span("root"), tracer.span("child") as child:
                pass
        assert child.remote_parent is None
        assert child.parent is not None

    def test_event_carries_remote_parent_marker(self):
        tracer = Tracer()
        with tracer.attached(TraceContext("t9", 42)):
            with tracer.span("worker.shard") as span:
                pass
        event = span_event(span)
        assert event["parent_id"] == 42
        assert event["remote_parent"] is True

    def test_local_span_event_has_no_marker(self):
        tracer = Tracer()
        with tracer.span("local") as span:
            pass
        assert "remote_parent" not in span_event(span)

    def test_attach_none_is_a_noop(self):
        tracer = Tracer()
        with tracer.attached(None):
            with tracer.span("root") as span:
                pass
        assert span.remote_parent is None

    def test_restores_previous_context(self):
        tracer = Tracer()
        with tracer.attached(TraceContext("t1", 1)):
            with tracer.attached(TraceContext("t2", 2)):
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("outer") as outer:
                pass
        assert inner.trace_id == "t2"
        assert outer.trace_id == "t1"

    def test_null_tracer_attach_is_a_noop_cm(self):
        with NullTracer().attached(TraceContext("t1", 1)):
            pass


class TestShardTracePayload:
    def test_none_without_trace_dir(self):
        assert shard_trace_payload(None) is None

    def test_none_without_an_active_span(self):
        assert isinstance(instruments().tracer, NullTracer)
        assert shard_trace_payload("/tmp/w") is None

    def test_carries_dir_and_traceparent(self, tmp_path):
        tracer = Tracer()
        with installed(tracer=tracer):
            with tracer.span("campaign_drive") as drive:
                payload = shard_trace_payload(tmp_path)
        assert payload == {
            "dir": str(tmp_path),
            "traceparent": f"00-{drive.trace_id}-{drive.span_id}-01",
        }


class TestWorkerTraced:
    def test_no_payload_is_a_noop(self):
        before = instruments().tracer
        with worker_traced(None) as span:
            assert span is None
            assert instruments().tracer is before

    def test_writes_an_attached_worker_file(self, tmp_path):
        trace = {"dir": str(tmp_path), "traceparent": "00-t5-3-01"}
        try:
            with worker_traced(trace, shard_id="a:0000", app="x") as span:
                assert span is not None
                assert span.trace_id == "t5"
                with instruments().tracer.span("trial"):
                    pass
        finally:
            reset_worker_tracers()
        path = tmp_path / f"worker-{os.getpid()}.trace.jsonl"
        events = SPAN_SPEC.read_lines(path)
        assert [e["name"] for e in events] == ["trial", "worker.shard"]
        shard = events[1]
        assert shard["remote_parent"] is True
        assert shard["parent_id"] == 3
        assert shard["attrs"]["shard_id"] == "a:0000"
        assert shard["attrs"]["pid"] == os.getpid()
        assert events[0]["parent_id"] == shard["span_id"]

    def test_tracer_is_cached_across_shards(self, tmp_path):
        trace = {"dir": str(tmp_path), "traceparent": "00-t5-3-01"}
        try:
            with worker_traced(trace) as first:
                pass
            with worker_traced(trace) as second:
                pass
        finally:
            reset_worker_tracers()
        # One file, one tracer: span ids stay unique across shards.
        assert first.span_id != second.span_id
        path = tmp_path / f"worker-{os.getpid()}.trace.jsonl"
        assert len(SPAN_SPEC.read_lines(path)) == 2

    def test_bad_traceparent_raises(self, tmp_path):
        trace = {"dir": str(tmp_path), "traceparent": "nope"}
        with pytest.raises(PropagationError):
            with worker_traced(trace):
                pass


def _write_two_worker_campaign(tmp_path: Path) -> Path:
    """The deterministic fixture behind the golden merged trace: a
    driver trace (campaign root > campaign_drive) plus two fake-pid
    worker files, each a worker.shard root attached under campaign_drive
    with one trial child.  All clocks are injected counters, so every
    byte is pinned."""
    driver_path = tmp_path / "campaign.trace.jsonl"
    worker_dir = tmp_path / "campaign.trace.jsonl.workers"
    with JsonlTraceWriter(driver_path) as writer:
        driver = Tracer(
            sinks=(writer,),
            wall_clock=_counting_clock(1.0),
            cpu_clock=_counting_clock(0.5),
        )
        with driver.span("repro.campaign", mode="stratified"):
            with driver.span("campaign_drive", shards=2) as drive:
                context = TraceContext(drive.trace_id, drive.span_id)
                for pid, shard_id in ((101, "app:0000"), (102, "app:0001")):
                    worker_path = worker_dir / f"worker-{pid}.trace.jsonl"
                    with JsonlTraceWriter(worker_path) as worker_writer:
                        worker = Tracer(
                            sinks=(worker_writer,),
                            wall_clock=_counting_clock(1.0),
                            cpu_clock=_counting_clock(0.5),
                        )
                        with worker.attached(context):
                            with worker.span(
                                "worker.shard", pid=pid, shard_id=shard_id
                            ) as shard:
                                with worker.span("trial", site=3):
                                    pass
                                shard.count("trials", 1)
    merged = tmp_path / "merged.trace.jsonl"
    merge_traces(driver_path, worker_dir, output=merged, driver_pid=77)
    return merged


class TestMergeTraces:
    def test_golden_merged_trace_is_byte_stable(self, tmp_path):
        """Pins the merged multi-process wire form: renumbering, the
        kept remote_parent edges, pid provenance, worker-before-driver
        event order."""
        merged = _write_two_worker_campaign(tmp_path)
        assert merged.read_bytes() == GOLDEN.read_bytes()

    def test_merged_trace_is_schema_valid_and_fully_linked(self, tmp_path):
        merged = _write_two_worker_campaign(tmp_path)
        # No TraceWarning: no orphans.
        events = SPAN_SPEC.read_lines(merged, required=True)
        assert not orphan_events(events)
        assert len(events) == 6
        assert {event["pid"] for event in events} == {77, 101, 102}

    def test_every_worker_span_reaches_the_campaign_root(self, tmp_path):
        merged = _write_two_worker_campaign(tmp_path)
        events = SPAN_SPEC.read_lines(merged)
        roots = build_forest(events)
        assert [root.name for root in roots] == ["repro.campaign"]
        names = [span.name for span in roots[0].walk()]
        assert names.count("worker.shard") == 2
        assert names.count("trial") == 2

    def test_worker_ids_renumbered_above_drivers(self, tmp_path):
        merged = _write_two_worker_campaign(tmp_path)
        events = SPAN_SPEC.read_lines(merged)
        driver_ids = {e["span_id"] for e in events if e["pid"] == 77}
        worker_ids = {e["span_id"] for e in events if e["pid"] != 77}
        assert max(driver_ids) < min(worker_ids)
        assert len(worker_ids) == 4  # no collisions across workers

    def test_self_times_sum_to_root_wall_time(self, tmp_path):
        """The aggregate_trace invariant survives the merge: every
        child second (worker spans included) is subtracted from exactly
        one parent."""
        merged = _write_two_worker_campaign(tmp_path)
        events = SPAN_SPEC.read_lines(merged)
        rows = aggregate_trace(events)
        total_self = sum(row["self_seconds"] for row in rows)
        assert total_self == pytest.approx(trace_root_seconds(events))

    def test_merge_in_place(self, tmp_path):
        merged = _write_two_worker_campaign(tmp_path)
        driver_path = tmp_path / "campaign.trace.jsonl"
        worker_dir = tmp_path / "campaign.trace.jsonl.workers"
        merge_traces(
            driver_path, worker_dir, output=driver_path, driver_pid=77
        )
        assert driver_path.read_bytes() == merged.read_bytes()

    def test_dangling_worker_parent_stays_a_collision_free_orphan(
        self, tmp_path
    ):
        """A worker killed mid-shard leaves a trial whose worker.shard
        parent never closed; the merge must keep it, renumbered onto an
        id no real span holds."""
        driver_path = tmp_path / "driver.jsonl"
        worker_dir = tmp_path / "workers"
        with JsonlTraceWriter(driver_path) as writer:
            driver = Tracer(
                sinks=(writer,),
                wall_clock=_counting_clock(1.0),
                cpu_clock=_counting_clock(0.5),
            )
            with driver.span("repro.campaign"):
                pass
        with JsonlTraceWriter(worker_dir / "worker-101.trace.jsonl") as w:
            worker = Tracer(
                sinks=(w,),
                wall_clock=_counting_clock(1.0),
                cpu_clock=_counting_clock(0.5),
            )
            with worker.span("worker.shard"), worker.span("trial"):
                pass  # both close...
        events = SPAN_SPEC.read_lines(worker_dir / "worker-101.trace.jsonl")
        # ...then drop the shard root, as a SIGKILL mid-write would.
        import json

        (worker_dir / "worker-101.trace.jsonl").write_text(
            json.dumps(events[0], sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        merged = merge_traces(driver_path, worker_dir, driver_pid=77)
        orphans = orphan_events(merged)
        assert len(orphans) == 1
        present = {event["span_id"] for event in merged}
        assert orphans[0]["parent_id"] not in present

    def test_unparseable_worker_file_name_rejected(self, tmp_path):
        driver_path = tmp_path / "driver.jsonl"
        with JsonlTraceWriter(driver_path) as writer:
            tracer = Tracer(sinks=(writer,))
            with tracer.span("root"):
                pass
        worker_dir = tmp_path / "workers"
        worker_dir.mkdir()
        (worker_dir / "worker-banana.trace.jsonl").write_text("")
        with pytest.raises(PropagationError, match="cannot recover its pid"):
            merge_traces(driver_path, worker_dir)


class TestOrphanForest:
    def test_orphans_grouped_per_pid_under_synthetic_roots(self):
        def span(span_id, parent_id, name, pid=None, start=0.0):
            event = {
                "schema": 1, "event": "span", "trace_id": "t1",
                "span_id": span_id, "parent_id": parent_id, "name": name,
                "start_seconds": start, "duration_seconds": 1.0,
                "cpu_seconds": 0.5, "attrs": {}, "counters": {},
            }
            if pid is not None:
                event["pid"] = pid
            return event

        events = [
            span(1, None, "root"),
            span(2, 99, "lost-a", pid=101),
            span(3, 99, "lost-b", pid=101, start=2.0),
            span(4, 98, "lost-c", pid=102),
        ]
        roots = build_forest(events)
        assert [r.name for r in roots] == ["root", "<orphaned>", "<orphaned>"]
        by_pid = {r.attrs.get("pid"): r for r in roots[1:]}
        assert sorted(by_pid) == [101, 102]
        assert [c.name for c in by_pid[101].children] == ["lost-a", "lost-b"]
        assert by_pid[101].duration_seconds == 2.0  # sum of children
        rendered = format_forest(events)
        assert rendered.count("<orphaned>") == 2
        assert "lost-c" in rendered

    def test_orphans_without_pid_share_one_root(self):
        events = [
            {
                "schema": 1, "event": "span", "trace_id": "t1",
                "span_id": i, "parent_id": 99, "name": f"lost-{i}",
                "start_seconds": 0.0, "duration_seconds": 1.0,
                "cpu_seconds": 0.0, "attrs": {}, "counters": {},
            }
            for i in (1, 2)
        ]
        roots = build_forest(events)
        assert [r.name for r in roots] == ["<orphaned>"]
        assert len(roots[0].children) == 2


class TestOffStateOverhead:
    def test_propagation_off_is_negligible(self):
        """Acceptance: with tracing off, the propagation hooks on the
        client/campaign hot paths — a context snapshot, an attach, an
        exporter lifecycle — must cost no more than the no-op tracer
        itself (same generous CI-proof bound as
        test_noop_overhead_is_negligible)."""
        tracer = instruments().tracer
        assert isinstance(tracer, NullTracer)
        exporter = NullExporter()
        start = time.perf_counter()
        for _ in range(100_000):
            current_context()          # client request stamping
            with tracer.attached(None):  # daemon dispatch
                pass
            exporter.start()           # campaign/serve off state
            exporter.close()
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"100k off-state iterations took {elapsed:.3f}s"

    def test_shard_payload_off_state_is_cheap_and_absent(self):
        assert isinstance(instruments().tracer, NullTracer)
        start = time.perf_counter()
        for _ in range(100_000):
            assert shard_trace_payload("dir") is None
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"100k payload stamps took {elapsed:.3f}s"
