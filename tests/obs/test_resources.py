"""Memory & resource telemetry: the monitor's attribution and GC
accounting under injected suppliers, the null monitor's pinned off-state
cost, and the MEM_*.json schema, byte for byte."""

import itertools
import json
import time
from pathlib import Path

import pytest

from repro.obs.resources import (
    RESOURCES_SCHEMA,
    RESOURCES_SPEC,
    NullResourceMonitor,
    ResourceError,
    ResourceMonitor,
    format_resources_table,
    peak_rss_bytes,
    resources_payload,
)
from repro.obs.context import installed, instruments

GOLDEN = Path(__file__).parent / "golden" / "resources.golden.json"

PINNED_FINGERPRINT = {
    "python": "3.11.0",
    "implementation": "CPython",
    "platform": "Linux-golden",
    "machine": "x86_64",
    "cpu_count": 4,
    "git_sha": "0" * 40,
}

CREATED = "2026-01-01T00:00:00Z"


def _counting_clock(step: float):
    counter = itertools.count()
    return lambda: next(counter) * step


class _FakeAlloc:
    """A scripted allocator: tests mutate ``current`` between reads and
    the peak tracks the high-water mark, exactly like tracemalloc."""

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def read(self):
        self.peak = max(self.peak, self.current)
        return (self.current, self.peak)

    def reset(self) -> None:
        self.peak = self.current


def _pinned_monitor(alloc=None):
    return ResourceMonitor(
        clock=_counting_clock(0.5),
        rss_supplier=lambda: 67108864,
        track_gc=False,
        alloc_read=(alloc or _FakeAlloc()).read if alloc is None
        else alloc.read,
        alloc_reset=None if alloc is None else alloc.reset,
    )


def _golden_payload() -> dict:
    """One fully deterministic monitoring run: a section, a sample,
    one manually driven GC pause, and a watched cache."""
    alloc = _FakeAlloc()
    monitor = _pinned_monitor(alloc)
    monitor.start()  # clock tick 0 -> started_at 0.0
    with monitor.section("checker.check"):
        alloc.current += 4096
    with monitor.section("infer.fixpoint"):
        alloc.current += 1024
    monitor.begin_sample()
    alloc.current += 2048
    assert monitor.end_sample() == 2048
    alloc.current -= 2048
    # track_gc=False keeps the live gc.callbacks out; the hook itself
    # is deterministic when driven by hand.
    monitor._on_gc("start", {"generation": 2})  # tick 1 -> 0.5
    monitor._on_gc("stop", {"generation": 2})   # tick 2 -> 1.0
    monitor.watch_cache("memory", lambda: {"entries": 3, "bytes": 2048})
    monitor.stop()  # tick 3 -> duration 1.5
    return monitor.payload(
        fingerprint=dict(PINNED_FINGERPRINT), created_utc=CREATED
    )


class TestResourceMonitor:
    def test_section_attribution(self):
        alloc = _FakeAlloc()
        monitor = _pinned_monitor(alloc).start()
        with monitor.section("checker.check"):
            alloc.current += 100
        with monitor.section("checker.check"):
            alloc.current += 50
        with monitor.section("infer.fixpoint"):
            alloc.current -= 30
        assert monitor.sections() == [
            {"name": "checker.check", "count": 2, "net_alloc_bytes": 150},
            {"name": "infer.fixpoint", "count": 1, "net_alloc_bytes": -30},
        ]

    def test_section_counts_without_alloc_supplier(self):
        monitor = ResourceMonitor(
            clock=_counting_clock(0.5),
            rss_supplier=lambda: None,
            trace_allocations=False,
            track_gc=False,
        ).start()
        with monitor.section("interpreter.step"):
            pass
        assert monitor.sections() == [
            {"name": "interpreter.step", "count": 1, "net_alloc_bytes": 0},
        ]
        assert monitor.alloc_snapshot() == (None, None)
        assert monitor.peak_rss() is None

    def test_per_repetition_sampling_resets_peak(self):
        alloc = _FakeAlloc()
        monitor = _pinned_monitor(alloc).start()
        alloc.current = 1000
        monitor.begin_sample()
        alloc.current = 5000
        assert monitor.end_sample() == 4000
        alloc.current = 1000
        monitor.begin_sample()  # reset: old 5000 peak must not leak
        alloc.current = 1500
        assert monitor.end_sample() == 500

    def test_gc_pause_accounting_with_injected_clock(self):
        monitor = _pinned_monitor()
        monitor.start()  # tick 0
        monitor._on_gc("start", {"generation": 0})  # tick 1: 0.5
        monitor._on_gc("stop", {"generation": 0})   # tick 2: 1.0
        monitor._on_gc("start", {"generation": 2})  # tick 3: 1.5
        monitor._on_gc("stop", {"generation": 2})   # tick 4: 2.0
        snapshot = monitor.gc_snapshot()
        assert snapshot["collections"] == 2
        assert snapshot["pause_seconds_total"] == pytest.approx(1.0)
        assert snapshot["collections_by_generation"] == {"0": 1, "2": 1}

    def test_real_gc_callback_registers_and_unregisters(self):
        import gc

        monitor = ResourceMonitor(trace_allocations=False)
        with monitor:
            assert monitor._on_gc in gc.callbacks
            gc.collect()
        assert monitor._on_gc not in gc.callbacks
        assert monitor.gc_snapshot()["collections"] >= 1

    def test_stop_freezes_duration_and_is_idempotent(self):
        monitor = _pinned_monitor()
        monitor.start()  # tick 0
        monitor.start()  # idempotent: no extra tick consumed for start_at
        monitor.stop()   # tick 1 -> duration 0.5
        monitor.stop()
        assert monitor.snapshot()["duration_seconds"] == pytest.approx(0.5)

    def test_cache_occupancy_tolerates_raising_supplier(self):
        monitor = _pinned_monitor().start()
        monitor.watch_cache("memory", lambda: {"entries": 2, "bytes": 64})
        monitor.watch_cache("disk", lambda: (_ for _ in ()).throw(OSError()))
        assert monitor.cache_occupancy() == {
            "disk": {"entries": 0, "bytes": 0},
            "memory": {"entries": 2, "bytes": 64},
        }

    def test_owned_tracemalloc_lifecycle(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        monitor = ResourceMonitor(track_gc=False)
        with monitor:
            assert tracemalloc.is_tracing()
            blob = bytearray(1 << 16)
            current, peak = monitor.alloc_snapshot()
            assert peak >= len(blob)
        assert not tracemalloc.is_tracing()
        # The final reading is frozen so post-stop payloads keep it.
        current, peak = monitor.alloc_snapshot()
        assert peak is not None and peak >= 1 << 16

    def test_peak_rss_bytes_is_plausible(self):
        rss = peak_rss_bytes()
        assert rss is not None
        assert rss > 1 << 20  # a Python process holds well over a MiB


class TestNullResourceMonitor:
    def test_default_monitor_is_null(self):
        assert isinstance(instruments().monitor, NullResourceMonitor)
        assert instruments().monitor.enabled is False

    def test_sections_share_one_noop_object(self):
        null = NullResourceMonitor()
        assert null.section("a") is null.section("b")
        with null.section("interpreter.step"):
            pass
        assert null.sections() == []
        assert null.end_sample() is None
        assert null.cache_occupancy() == {}
        assert null.peak_rss() is None
        assert null.alloc_snapshot() == (None, None)
        assert null.gc_snapshot()["collections"] == 0

    def test_installed_monitor_restores_previous(self):
        monitor = _pinned_monitor()
        before = instruments().monitor
        with installed(monitor=monitor):
            assert instruments().monitor is monitor
        assert instruments().monitor is before

    def test_set_none_restores_null(self):
        previous = instruments().monitor
        with installed(monitor=_pinned_monitor()):
            with installed(monitor=None):
                assert isinstance(instruments().monitor, NullResourceMonitor)
        assert isinstance(previous, NullResourceMonitor)
        assert instruments().monitor is previous

    def test_noop_overhead_is_negligible(self):
        """The pin the CI mem-smoke step relies on: 100k disabled
        sections must stay under the same bound as the null tracer,
        event log, and profiler — the anchors share their hot-loop
        placement."""
        assert isinstance(instruments().monitor, NullResourceMonitor)
        start = time.perf_counter()
        for _ in range(100_000):
            with instruments().monitor.section("interpreter.step"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"no-op section overhead too high: {elapsed:.3f}s"


class TestSchema:
    def test_golden_resources_json(self):
        """The full payload, byte for byte — schema drift must be a
        conscious change to the golden file and RESOURCES_SCHEMA."""
        assert RESOURCES_SPEC.dumps(_golden_payload()) == GOLDEN.read_text(
            encoding="utf-8"
        )

    def test_round_trip(self, tmp_path):
        payload = _golden_payload()
        path = RESOURCES_SPEC.write(payload, tmp_path / "MEM_test.json")
        assert RESOURCES_SPEC.read(path) == payload

    def test_default_filename_convention(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = RESOURCES_SPEC.write(_golden_payload())
        assert path.name == "MEM_20260101T000000Z.json"

    def test_validate_accepts_golden(self):
        payload = RESOURCES_SPEC.validate(_golden_payload())
        assert payload["kind"] == "resources"

    @pytest.mark.parametrize("mutate, message", [
        (lambda p: p.update(schema=99), "unsupported resources schema"),
        (lambda p: p.update(kind="bench"), "unknown resources kind"),
        (lambda p: p.update(created_utc=7), "created_utc"),
        (lambda p: p["fingerprint"].pop("python"), "fingerprint missing"),
        (lambda p: p.update(duration_seconds=-1), "duration_seconds"),
        (lambda p: p.update(peak_rss_bytes=-5), "peak_rss_bytes"),
        (lambda p: p.update(alloc_peak_bytes="big"), "alloc_peak_bytes"),
        (lambda p: p["gc"].update(collections=-1), "gc.collections"),
        (lambda p: p["gc"].update(pause_seconds_total=None),
         "pause_seconds_total"),
        (lambda p: p["sections"].append({"name": 3}), "sections"),
        (lambda p: p["caches"].update(disk={"entries": -1, "bytes": 0}),
         "cache 'disk'"),
    ])
    def test_validate_rejects_malformed(self, mutate, message):
        payload = json.loads(RESOURCES_SPEC.dumps(_golden_payload()))
        mutate(payload)
        with pytest.raises(ResourceError, match=message):
            RESOURCES_SPEC.validate(payload)

    def test_read_rejects_invalid_json(self, tmp_path):
        torn = tmp_path / "MEM_torn.json"
        torn.write_text('{"schema": 1, "kin')
        with pytest.raises(ResourceError, match="invalid JSON"):
            RESOURCES_SPEC.read(torn)

    def test_payload_nulls_without_allocation_tracing(self):
        monitor = ResourceMonitor(
            clock=_counting_clock(0.5),
            rss_supplier=lambda: 1024,
            trace_allocations=False,
            track_gc=False,
        )
        with monitor:
            pass
        payload = resources_payload(
            monitor.snapshot(),
            fingerprint=dict(PINNED_FINGERPRINT),
            created_utc=CREATED,
        )
        RESOURCES_SPEC.validate(payload)
        assert payload["alloc_current_bytes"] is None
        assert payload["alloc_peak_bytes"] is None
        assert payload["peak_rss_bytes"] == 1024


class TestRendering:
    def test_table_is_deterministic(self):
        table = format_resources_table(_golden_payload())
        assert table == format_resources_table(_golden_payload())
        assert "checker.check" in table
        assert "infer.fixpoint" in table
        assert "peak rss 64.0 MiB" in table
        assert "1 gc collection(s)" in table

    def test_table_without_sections_or_caches(self):
        monitor = ResourceMonitor(
            clock=_counting_clock(0.5),
            rss_supplier=lambda: None,
            trace_allocations=False,
            track_gc=False,
        )
        with monitor:
            pass
        payload = resources_payload(
            monitor.snapshot(),
            fingerprint=dict(PINNED_FINGERPRINT),
            created_utc=CREATED,
        )
        table = format_resources_table(payload)
        assert "peak rss - MiB" in table
        assert "section" not in table


class TestAnchors:
    def test_checker_attributes_to_installed_monitor(self):
        from repro.apps import load_app
        from repro.core.checker import SJavaChecker

        bundle = load_app("wind_sensor")
        monitor = ResourceMonitor(track_gc=False)
        with monitor, installed(monitor=monitor):
            SJavaChecker(bundle.info).run()
        names = [row["name"] for row in monitor.sections()]
        assert "checker.check" in names
