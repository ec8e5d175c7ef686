"""Convergence telemetry: per-iteration digests, divergence/convergence
series, trial events, and manifest persistence (incl. old-manifest
compatibility)."""

from __future__ import annotations

import json

import pytest

from repro.apps import app_experiment
from repro.obs.events import (
    EventBuffer,
    EventLog,
)
from repro.runtime.campaign import (
    CampaignConfig,
    CampaignRunner,
    trial_record,
    trial_telemetry,
)
from repro.runtime.interpreter import Interpreter, state_digest
from repro.runtime.stabilization import (
    InjectionTrial,
    convergence_series,
    divergence_series,
)
from repro.obs.context import installed, instruments


class TestSeries:
    def test_divergence_zero_when_identical(self):
        groups = [[1, 2], [3], [4, 5]]
        assert divergence_series(groups, groups) == [0, 0, 0]

    def test_divergence_counts_mismatched_positions(self):
        reference = [[1, 2], [3, 4], [5]]
        faulty = [[1, 2], [9, 4], [5]]
        assert divergence_series(reference, faulty) == [0, 1, 0]

    def test_divergence_counts_missing_positions(self):
        reference = [[1, 2], [3, 4]]
        faulty = [[1, 2], [3]]  # truncated iteration
        assert divergence_series(reference, faulty) == [0, 1]

    def test_divergence_counts_extra_iterations(self):
        reference = [[1]]
        faulty = [[1], [2, 3]]
        assert divergence_series(reference, faulty) == [0, 2]

    def test_convergence_plateau_equals_recovery_samples(self):
        reference = [[1], [2, 3], [4], [5, 6], [7]]
        # injected at iteration 1, recovered after 2 iterations:
        # samples replayed = len([2,3]) + len([4]) = 3
        series = convergence_series(reference, 1, 2)
        assert series == [2, 3, 3, 3]
        assert series[-1] == 3

    def test_convergence_immediate_recovery_is_flat_zero(self):
        reference = [[1], [2], [3]]
        assert convergence_series(reference, 1, 0) == [0, 0]


class TestStateDigest:
    def test_deterministic_8_hex_chars(self):
        digest = state_digest([1, 2.5, "x"])
        assert digest == state_digest([1, 2.5, "x"])
        assert len(digest) == 8
        int(digest, 16)  # hex

    def test_distinguishes_values(self):
        assert state_digest([1]) != state_digest([2])

    def test_iteration_digests_match_across_engines(self):
        compiled = app_experiment("wind_sensor", 6)
        interpreted = app_experiment("wind_sensor", 6)
        interpreted.engine = Interpreter
        run_c = compiled._run(None)
        run_i = interpreted._run(None)
        digests_c = run_c.iteration_digests()
        digests_i = run_i.iteration_digests()
        assert len(digests_c) == 6
        assert digests_c == digests_i


class TestTrialTelemetry:
    def test_recovered_trial_curve_ends_at_recovery_samples(self):
        experiment = app_experiment("wind_sensor", 10)
        recovered = None
        for seed in range(30):
            trial = experiment.trial(seed)
            if trial.recovery_samples is not None and not trial.diverged:
                recovered = trial
                break
        assert recovered is not None, "no recovered trial in 30 seeds"
        assert recovered.convergence is not None
        assert recovered.convergence[-1] == recovered.recovery_samples
        assert recovered.divergence is not None
        assert any(recovered.divergence), "recovered run never diverged?"

    def test_masked_trial_has_flat_divergence_no_convergence(self):
        experiment = app_experiment("wind_sensor", 10)
        masked = None
        for seed in range(40):
            trial = experiment.trial(seed)
            if (trial.injection_iteration is not None
                    and not trial.corrupted_output):
                masked = trial
                break
        assert masked is not None, "no masked trial in 40 seeds"
        assert masked.divergence == [0] * len(masked.divergence)
        assert masked.convergence is None

    def test_trial_events_emitted(self):
        buffer = EventBuffer()
        experiment = app_experiment("wind_sensor", 8)
        with installed(event_log=EventLog(level="debug", sinks=(buffer,))):
            experiment.trial_at(5, seed=3)
        names = [r["name"] for r in buffer.records]
        assert "trial.corrupted" in names
        assert any(n.startswith("trial.") and n != "trial.corrupted"
                   for n in names)
        assert "runtime.iteration" in names
        iteration_events = [
            r for r in buffer.records if r["name"] == "runtime.iteration"
        ]
        for record in iteration_events:
            assert set(record["attrs"]) == {
                "iteration", "outputs", "digest"
            }

    def test_iteration_events_gated_below_debug(self):
        buffer = EventBuffer()
        experiment = app_experiment("wind_sensor", 8)
        with installed(event_log=EventLog(level="info", sinks=(buffer,))):
            experiment.trial_at(5, seed=3)
        names = {r["name"] for r in buffer.records}
        assert "runtime.iteration" not in names
        assert "trial.corrupted" in names

    def test_telemetry_computed_with_events_disabled(self):
        from repro.obs.events import NullEventLog

        assert isinstance(instruments().event_log, NullEventLog)
        experiment = app_experiment("wind_sensor", 8)
        trial = experiment.trial_at(5, seed=3)
        assert trial.divergence is not None


class TestManifestPersistence:
    CONFIG = dict(
        apps=("wind_sensor",), trials=4, strata=2, iterations=8,
        shard_size=2, seed=1,
    )

    def test_trial_record_round_trips_telemetry(self):
        trial = InjectionTrial(
            target_step=3, injection_iteration=1, corrupted_output=True,
            recovery_samples=2, recovery_iterations=1,
            divergence=[0, 1, 0], convergence=[2, 2],
        )
        record = trial_record("wind_sensor", trial)
        assert record["telemetry"] == {
            "divergence": [0, 1, 0], "convergence": [2, 2],
        }
        assert trial_telemetry(record)["convergence"] == [2, 2]

    def test_trial_record_omits_empty_telemetry(self):
        trial = InjectionTrial(
            target_step=3, injection_iteration=None,
            corrupted_output=False, recovery_samples=None,
            recovery_iterations=None,
        )
        record = trial_record("wind_sensor", trial)
        assert "telemetry" not in record

    def test_trial_telemetry_tolerates_old_records(self):
        assert trial_telemetry({"app": "x", "verdict": "masked"}) == {
            "divergence": None, "convergence": None,
            "node_divergence": None, "node_digests": None,
        }

    def test_campaign_manifest_carries_telemetry(self, tmp_path):
        checkpoint = tmp_path / "manifest.json"
        config = CampaignConfig(**self.CONFIG)
        CampaignRunner(config=config, checkpoint_path=checkpoint).run()
        manifest = json.loads(checkpoint.read_text())
        trials = [
            t for shard in manifest["shards"].values()
            for t in shard.get("trials", [])
        ]
        assert trials
        injected = [
            t for t in trials if t["injection_iteration"] is not None
        ]
        assert injected
        for trial in injected:
            telemetry = trial_telemetry(trial)
            assert telemetry["divergence"] is not None
            if trial["verdict"] == "recovered":
                assert telemetry["convergence"][-1] == \
                    trial["recovery_samples"]

    def test_old_manifest_without_telemetry_resumes(self, tmp_path):
        """A checkpoint written by a pre-telemetry build must load,
        resume, and aggregate — the schema was NOT bumped."""
        checkpoint = tmp_path / "manifest.json"
        config = CampaignConfig(**self.CONFIG)
        runner = CampaignRunner(
            config=config, checkpoint_path=checkpoint, stop_after_shards=1
        )
        runner.run()
        manifest = json.loads(checkpoint.read_text())
        done = sum(
            1 for s in manifest["shards"].values()
            if s.get("status") == "done"
        )
        assert done == 1
        # Strip telemetry: now the manifest looks pre-telemetry.
        for shard in manifest["shards"].values():
            for trial in shard.get("trials", []):
                trial.pop("telemetry", None)
        checkpoint.write_text(json.dumps(manifest))
        report = CampaignRunner(
            config=config, checkpoint_path=checkpoint
        ).run()
        assert report["complete"]
        resumed = json.loads(checkpoint.read_text())
        assert len(resumed["shards"]) > done

    def test_campaign_emits_driver_events(self, tmp_path):
        buffer = EventBuffer()
        config = CampaignConfig(**self.CONFIG)
        with installed(event_log=EventLog(sinks=(buffer,))):
            CampaignRunner(
                config=config, checkpoint_path=tmp_path / "m.json"
            ).run()
        names = [r["name"] for r in buffer.records]
        assert "campaign.plan" in names
        shard_events = [
            r for r in buffer.records if r["name"] == "campaign.shard"
        ]
        assert len(shard_events) == 2  # 4 trials / shard_size 2
        for record in shard_events:
            assert record["attrs"]["status"] == "done"
