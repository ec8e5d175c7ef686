"""Campaign observability: per-shard obs records and tracing."""

from __future__ import annotations

import json

from repro.obs import RingBufferSink, Tracer
from repro.runtime.campaign import CampaignConfig, CampaignRunner
from repro.obs.context import installed

OBS_KEYS = {
    "run_seconds", "queue_wait_seconds", "attempts", "retries", "timeouts",
    "peak_rss_bytes",
}


def tiny_config(**overrides) -> CampaignConfig:
    base = dict(
        apps=("wind_sensor",),
        mode="stratified",
        trials=4,
        strata=2,
        iterations=12,
        seed=7,
        shard_size=2,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestShardObs:
    def test_manifest_records_per_shard_obs(self, tmp_path):
        checkpoint = tmp_path / "ck.json"
        CampaignRunner(config=tiny_config(), checkpoint_path=checkpoint).run()
        manifest = json.loads(checkpoint.read_text())
        done = [
            record for record in manifest["shards"].values()
            if record["status"] == "done"
        ]
        assert done, "campaign completed no shards?"
        for record in done:
            obs = record["obs"]
            assert OBS_KEYS <= set(obs)
            assert obs["run_seconds"] >= 0
            assert obs["queue_wait_seconds"] >= 0
            assert obs["attempts"] >= 1
            assert obs["retries"] == obs["attempts"] - 1
            assert obs["timeouts"] == 0
            # worker-side memory accounting (POSIX: always present)
            assert obs["peak_rss_bytes"] > 0

    def test_obs_survives_parallel_execution(self, tmp_path):
        checkpoint = tmp_path / "ck.json"
        CampaignRunner(
            config=tiny_config(),
            checkpoint_path=checkpoint,
            max_workers=2,
        ).run()
        manifest = json.loads(checkpoint.read_text())
        for record in manifest["shards"].values():
            if record["status"] == "done":
                assert OBS_KEYS <= set(record["obs"])

    def test_resume_tolerates_records_without_obs(self, tmp_path):
        """Manifests written before this schema addition have no ``obs``
        key; resuming from one must still work."""
        checkpoint = tmp_path / "ck.json"
        CampaignRunner(config=tiny_config(), checkpoint_path=checkpoint).run()
        manifest = json.loads(checkpoint.read_text())
        for record in manifest["shards"].values():
            record.pop("obs", None)
        checkpoint.write_text(json.dumps(manifest))
        rerun = CampaignRunner(
            config=tiny_config(), checkpoint_path=checkpoint
        )
        report = rerun.run()
        assert report["complete"] is True
        assert rerun.executed_shards == 0  # nothing re-ran


class TestCampaignTracing:
    def test_drive_emits_shard_spans(self, tmp_path):
        ring = RingBufferSink()
        with installed(tracer=Tracer(sinks=(ring,))):
            CampaignRunner(
                config=tiny_config(), checkpoint_path=tmp_path / "ck.json"
            ).run()
        roots = [r for r in ring.roots if r.name == "campaign_drive"]
        assert len(roots) == 1
        shard_spans = [
            span for span in roots[0].walk() if span.name == "shard"
        ]
        assert len(shard_spans) == 2
        for span in shard_spans:
            assert "shard_id" in span.attrs
            assert span.attrs["app"] == "wind_sensor"
            assert span.counters["trials"] > 0
