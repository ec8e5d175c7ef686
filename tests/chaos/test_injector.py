"""ChaosInjector: pure seeded plans, exactly-once execution, events."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.chaos import (
    FAULTS,
    ChaosConfig,
    ChaosError,
    ChaosInjector,
    NullChaosInjector,
    chaos_recovery,
    parse_faults,
)
from repro.obs import EventBuffer, EventLog
from repro.obs.context import installed, instruments


def injector(**overrides) -> ChaosInjector:
    return ChaosInjector(ChaosConfig(**overrides))


class TestParseFaults:
    def test_all_expands_to_every_class(self):
        assert parse_faults("all") == FAULTS

    def test_subset_round_trips(self):
        assert parse_faults("worker-crash, slow-io") == (
            "worker-crash", "slow-io"
        )

    def test_unknown_fault_fails_loudly(self):
        with pytest.raises(ChaosError, match="unknown fault"):
            parse_faults("worker-crash,disk-melt")

    def test_empty_spec_is_rejected(self):
        with pytest.raises(ChaosError, match="at least one"):
            parse_faults(" , ")


class TestConfig:
    def test_round_trips_through_dict(self):
        config = ChaosConfig(
            seed=3, rate=0.5, faults=("slow-io",), sites=("cache.",),
            state_dir=None, max_fires=7, hang_seconds=1.5,
            slow_io_seconds=0.25,
        )
        assert ChaosConfig.from_dict(config.to_dict()) == config

    def test_rate_out_of_range_is_rejected(self):
        with pytest.raises(ChaosError, match="rate"):
            ChaosConfig(rate=1.5)

    def test_unknown_fault_is_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault"):
            ChaosConfig(faults=("nope",))


class TestPurePlan:
    def test_decision_is_a_pure_function_of_seed_site_key(self):
        a, b = injector(seed=11), injector(seed=11)
        decisions = [
            a.decide("slow-io", "cache.read", str(k)) for k in range(64)
        ]
        assert decisions == [
            b.decide("slow-io", "cache.read", str(k)) for k in range(64)
        ]

    def test_different_seeds_plan_different_faults(self):
        a, b = injector(seed=0, rate=0.5), injector(seed=1, rate=0.5)
        plan = lambda inj: [
            inj.decide("slow-io", "cache.read", str(k)) for k in range(128)
        ]
        assert plan(a) != plan(b)

    def test_rate_zero_plans_nothing(self):
        inj = injector(rate=0.0)
        assert not any(
            inj.decide(fault, "anywhere", str(k))
            for fault in FAULTS for k in range(32)
        )

    def test_rate_one_plans_everything_enabled(self):
        inj = injector(rate=1.0, faults=("slow-io",))
        assert all(
            inj.decide("slow-io", "s", str(k)) for k in range(32)
        )
        assert not inj.decide("worker-crash", "s", "0")

    def test_sites_prefix_allowlist(self):
        inj = injector(rate=1.0, sites=("cache.",))
        assert inj.decide("slow-io", "cache.read", "k")
        assert not inj.decide("slow-io", "manifest.checkpoint", "k")

    def test_roll_is_roughly_uniform(self):
        inj = injector(rate=0.25)
        hits = sum(
            inj.decide("slow-io", "site", str(k)) for k in range(2000)
        )
        assert 350 < hits < 650  # 500 expected


class TestExactlyOnce:
    def test_in_memory_fire_claims_once(self):
        inj = injector(rate=1.0, faults=("slow-io",))
        assert inj.fire("slow-io", "s", "k")
        assert not inj.fire("slow-io", "s", "k")
        assert inj.summary() == {"injected": 1, "by_fault": {"slow-io": 1}}

    def test_ledger_survives_across_instances(self, tmp_path):
        config = dict(
            rate=1.0, faults=("slow-io",), state_dir=str(tmp_path / "ledger")
        )
        first = injector(**config)
        assert first.fire("slow-io", "s", "k")
        # A second injector (a retried worker, a fresh process) sees the
        # marker the first one fsynced before executing the fault.
        second = injector(**config)
        assert not second.fire("slow-io", "s", "k")
        [record] = second.fired()
        assert record["fault"] == "slow-io"
        assert record["site"] == "s"
        assert record["key"] == "k"
        assert record["pid"] == os.getpid()

    def test_max_fires_bounds_the_fault_budget(self):
        inj = injector(rate=1.0, faults=("slow-io",), max_fires=2)
        fired = [inj.fire("slow-io", "s", str(k)) for k in range(5)]
        assert fired == [True, True, False, False, False]

    def test_max_fires_bounds_the_ledger_too(self, tmp_path):
        inj = injector(
            rate=1.0, faults=("slow-io",), max_fires=1,
            state_dir=str(tmp_path),
        )
        assert inj.fire("slow-io", "s", "a")
        assert not inj.fire("slow-io", "s", "b")
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_torn_ledger_marker_is_skipped_by_fired(self, tmp_path):
        inj = injector(rate=1.0, faults=("slow-io",), state_dir=str(tmp_path))
        assert inj.fire("slow-io", "s", "k")
        (tmp_path / "torn.json").write_text('{"fault": ')
        assert len(inj.fired()) == 1


class TestProbes:
    def test_slow_point_sleeps_the_configured_latency(self):
        slept = []
        inj = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("slow-io",), slow_io_seconds=0.25),
            sleep=slept.append,
        )
        inj.slow_point("cache.read", "k")
        assert slept == [0.25]
        inj.slow_point("cache.read", "k")  # claimed: no second sleep
        assert slept == [0.25]

    def test_hang_point_sleeps_hang_seconds(self):
        slept = []
        inj = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("worker-hang",), hang_seconds=9.0),
            sleep=slept.append,
        )
        inj.hang_point("worker.shard", "s:0000")
        assert slept == [9.0]

    def test_corrupt_bytes_truncates_to_half(self):
        inj = injector(rate=1.0, faults=("cache-corrupt",))
        blob = b"x" * 100
        assert inj.corrupt_bytes("cache.entry", "k", blob) == b"x" * 50
        # Exactly-once: the same entry is not corrupted twice.
        assert inj.corrupt_bytes("cache.entry", "k", blob) is None

    def test_torn_write_variant_is_deterministic(self):
        variants = [
            injector(rate=1.0, faults=("torn-manifest",)).torn_write(
                "manifest.checkpoint", f"m:{k}"
            )
            for k in range(16)
        ]
        assert set(variants) <= {"truncate", "no-rename"}
        assert variants == [
            injector(rate=1.0, faults=("torn-manifest",)).torn_write(
                "manifest.checkpoint", f"m:{k}"
            )
            for k in range(16)
        ]
        assert len(set(variants)) == 2  # both tear modes exercised

    def test_duplicate_and_drop_points(self):
        inj = injector(rate=1.0, faults=("duplicate-shard", "socket-drop"))
        assert inj.duplicate_point("campaign.result", "s:0000")
        assert not inj.duplicate_point("campaign.result", "s:0000")
        assert inj.drop_point("client.request", "check:1")
        assert not inj.drop_point("client.request", "check:1")


class TestObservability:
    def test_fire_emits_chaos_event_and_counters(self):
        buffer = EventBuffer(capacity=16)
        with installed(event_log=EventLog(level="debug", sinks=(buffer,))):
            inj = injector(rate=1.0, faults=("slow-io",))
            inj.fire("slow-io", "cache.read", "k", seconds=0.05)
        [event] = [
            e for e in buffer.records if e["name"] == "chaos.slow_io"
        ]
        assert event["level"] == "warn"
        assert event["attrs"]["site"] == "cache.read"
        assert event["attrs"]["key"] == "k"

    def test_chaos_recovery_emits_event(self):
        buffer = EventBuffer(capacity=16)
        with installed(event_log=EventLog(level="debug", sinks=(buffer,))):
            chaos_recovery("duplicate-ignored", "campaign.result", shard_id="x")
        [event] = buffer.records
        assert event["name"] == "chaos.recovery"
        assert event["attrs"]["action"] == "duplicate-ignored"
        assert event["attrs"]["site"] == "campaign.result"


class TestWorkerPayload:
    def test_none_without_state_dir(self):
        assert injector(rate=1.0).worker_payload() is None

    def test_none_without_worker_faults(self, tmp_path):
        inj = injector(
            rate=1.0, faults=("torn-manifest",), state_dir=str(tmp_path)
        )
        assert inj.worker_payload() is None

    def test_ships_worker_faults_and_slow_io_only(self, tmp_path):
        inj = injector(
            rate=1.0,
            faults=("worker-crash", "torn-manifest", "slow-io"),
            state_dir=str(tmp_path),
        )
        payload = inj.worker_payload()
        worker = ChaosConfig.from_dict(payload)
        assert set(worker.faults) == {"worker-crash", "slow-io"}
        assert worker.seed == inj.config.seed
        assert worker.state_dir == str(tmp_path)
        json.dumps(payload)  # must be picklable/plain


class TestGlobalInstallation:
    def test_default_is_null(self):
        assert isinstance(instruments().chaos, NullChaosInjector)

    def test_installed_chaos_restores_previous(self):
        before = instruments().chaos
        inj = injector(rate=0.0)
        with installed(chaos=inj):
            assert instruments().chaos is inj
        assert instruments().chaos is before

    def test_set_chaos_none_restores_the_null_default(self):
        with installed(chaos=injector(rate=0.0)):
            with installed(chaos=None):
                assert isinstance(instruments().chaos, NullChaosInjector)
        assert isinstance(instruments().chaos, NullChaosInjector)


class TestNullInjector:
    def test_every_probe_is_a_no_op(self):
        null = NullChaosInjector()
        assert not null.enabled
        assert not null.decide("slow-io", "s", "k")
        assert not null.fire("slow-io", "s", "k")
        assert null.crash_point("s", "k") is None
        assert null.hang_point("s", "k") is None
        assert null.slow_point("s", "k") is None
        assert null.corrupt_bytes("s", "k", b"data") is None
        assert null.torn_write("s", "k") is None
        assert not null.duplicate_point("s", "k")
        assert not null.drop_point("s", "k")
        assert null.fired() == []
        assert null.summary() == {"injected": 0, "by_fault": {}}
        assert null.worker_payload() is None

    def test_disabled_probe_overhead_is_negligible(self):
        """Acceptance: chaos probes sit on manifest writes, cache
        lookups, and the daemon request path — with chaos off they pay
        one global read and a no-op call, same bound as the null tracer
        and null event log."""
        null = instruments().chaos
        assert isinstance(null, NullChaosInjector)
        start = time.perf_counter()
        for k in range(100_000):
            chaos = instruments().chaos
            if chaos.drop_point("client.request", k):
                raise AssertionError("null injector fired")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"100k no-op probes took {elapsed:.3f}s"
