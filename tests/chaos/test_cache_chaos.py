"""Disk cache under chaos: slow-io latency, planned corruption, and the
quarantine-then-heal recovery loop."""

from __future__ import annotations

import json

from repro.chaos import ChaosConfig, ChaosInjector
from repro.core.checker import check_program
from repro.obs import EventBuffer, EventLog
from repro.service.cache import ResultCache
from repro.obs.context import installed


class TestSlowIO:
    def test_slow_io_delays_disk_reads_and_writes(self, tmp_path, wind_source):
        slept: list[float] = []
        injector = ChaosInjector(
            ChaosConfig(
                rate=1.0, faults=("slow-io",), sites=("cache.",),
                slow_io_seconds=0.25,
            ),
            sleep=slept.append,
        )
        report = check_program(wind_source)
        with installed(chaos=injector):
            ResultCache(disk_dir=tmp_path).put(wind_source, report)
            assert ResultCache(disk_dir=tmp_path).get(wind_source) is not None
        # One injected stall on the write path, one on the read path.
        assert slept == [0.25, 0.25]
        assert injector.summary()["by_fault"] == {"slow-io": 2}


class TestCacheCorrupt:
    def test_corrupt_entry_quarantines_then_heals(self, tmp_path, wind_source):
        """A planned cache-corrupt fault truncates the stored entry; the
        next lookup is a miss (never a wrong verdict), the slot is
        quarantined, and the following store heals it — all visible as
        chaos.* events."""
        report = check_program(wind_source)
        buffer = EventBuffer(capacity=64)
        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("cache-corrupt",))
        )
        with installed(event_log=EventLog(level="debug", sinks=(buffer,))):
            with installed(chaos=injector):
                cache = ResultCache(disk_dir=tmp_path)
                cache.put(wind_source, report)
                (entry,) = tmp_path.glob("*.json")
                with entry.open() as handle:
                    try:
                        json.load(handle)
                    except ValueError:
                        truncated = True
                    else:
                        truncated = False
                assert truncated, "the planned fault should tear the entry"
                # A fresh instance (cold memory tier) must treat the torn
                # entry as a miss and quarantine it.
                fresh = ResultCache(disk_dir=tmp_path)
                assert fresh.get(wind_source) is None
                assert not entry.exists()
                # The corrupt fault is exactly-once per key: the re-store
                # lands intact and the slot heals.
                fresh.put(wind_source, report)
                healed = ResultCache(disk_dir=tmp_path).get(wind_source)
                assert healed is not None and healed.self_stabilizing
        names = [e["name"] for e in buffer.records]
        assert "chaos.cache_corrupt" in names
        [recovery] = [
            e for e in buffer.records
            if e["name"] == "chaos.recovery"
            and e["attrs"]["action"] == "cache-entry-quarantined"
        ]
        assert recovery["attrs"]["site"] == "cache.entry"
        assert injector.summary()["by_fault"] == {"cache-corrupt": 1}
