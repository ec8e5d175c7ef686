"""``campaign``: stratified ``run_campaign`` sweeps over mp3_decoder
(long trials), eye_tracker (short trials, set-up bound) and
gradient_channel (a fresh fabric engine per activation), fanned out over
``min(2, nproc)`` workers, one sweep after another for the run's
seconds.  Each sweep is one block of the timed window.

The differential oracle runs after the timed sweeps: a seeded sample of
each app's trials is re-run on a fresh experiment with the tree-walking
``Interpreter`` running the whole program, and every field of each
``trial_record`` must equal the campaign's.  Verdicts are reported as
measured: injections in the last iteration still read ``diverged``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import time

from repro.apps import resolve_experiment
from repro.runtime.campaign import (
    DIVERGED,
    MASKED,
    NOT_INJECTED,
    RECOVERED,
    TIMEOUT,
    plan_shards,
    run_campaign,
    run_shard,
    trial_record,
)
from repro.runtime.interpreter import Interpreter

from perfbench.common import (
    Block,
    Recorder,
    Result,
    SetupProbes,
    TraceRun,
    percentile,
    probe_setup,
    put_blocks,
    window_open,
    work_dir,
)
from perfbench.corpus import SWEEP_POOL, campaign_sweep
from perfbench.gauge import Gauge

#: Trials per app the differential oracle re-runs on the Interpreter.
ORACLE_SAMPLE = {"mp3_decoder": 2, "eye_tracker": 4, "gradient_channel": 3}
DIST_APPS = ("gradient_channel",)
VERDICTS = (RECOVERED, MASKED, DIVERGED, TIMEOUT, NOT_INJECTED)


def _experiment(config, app: str):
    return resolve_experiment(
        app, config.iterations, step_budget=config.step_budget,
        step_budget_factor=config.step_budget_factor,
    )


def _plain(record: dict) -> dict:
    """A trial record as it reads back from a JSON manifest."""
    return json.loads(json.dumps(record))


def run(seed: int, seconds: int, trace: bool, result: Result) -> TraceRun | None:
    if trace:
        return _traced(campaign_sweep(seed, 0), result)
    home = work_dir("campaign")
    blocks: list[Block] = []
    runs = []  # (app, site, seed, record) of every trial that ran
    rss = []  # each shard's worker peak RSS in bytes
    totals = dict.fromkeys(VERDICTS, 0)
    try:
        with Gauge() as gauge:
            probes = SetupProbes(lambda: probe_setup("campaign"), gauge)
            start = time.perf_counter()
            gauge.burst()
            while window_open(start, seconds, len(blocks), SWEEP_POOL):
                config = campaign_sweep(seed, len(blocks))
                manifest_path = home / f"manifest-{len(blocks)}.json"
                t0 = time.perf_counter()
                report = run_campaign(
                    config, checkpoint_path=manifest_path,
                    max_workers=min(2, os.cpu_count() or 1))
                t1 = time.perf_counter()
                gauge.burst()
                manifest = json.loads(
                    manifest_path.read_text(encoding="utf-8"))
                blocks.append(_sweep(config, report, manifest, t1 - t0,
                                     runs, rss, result))
                for app in report["apps"]:
                    for verdict in VERDICTS:
                        totals[verdict] += app[verdict.replace("-", "_")]
                probes.until((time.perf_counter() - start) / seconds)
            probes.put(result)
            # Per-trial latency: each shard's execution time in its
            # worker (its set-up and its trials, without queue wait) over
            # its trial count.
            put_blocks(result, _one_per_sweep(blocks), gauge)
    finally:
        shutil.rmtree(home, ignore_errors=True)
    _differential(seed, runs, result)

    # The median over shards of their worker's peak RSS: the largest
    # reading follows which worker happened to run the few sites whose
    # corrupted runs log thousands of errors.
    result.put("peak_rss_mb",
               percentile(rss, 50) / 2**20 if rss else 0.0, "MB")
    trials = sum(b.ops for b in blocks)
    busy = sum(b.seconds for b in blocks)
    result.notes.append(
        f"unscaled trials_per_s {trials / busy:.4f} 1/s ({trials} "
        f"trials, {len(blocks)} sweeps, {busy:.3f} s)")
    result.notes.append(
        "verdicts: " + ", ".join(f"{v} {n}" for v, n in totals.items()))
    if rss:
        result.notes.append(
            f"worker peak RSS over {len(rss)} shards: median "
            f"{percentile(rss, 50) / 2**20:.2f} MB, max "
            f"{max(rss) / 2**20:.2f} MB")


def _one_per_sweep(blocks: list[Block]) -> list[Block]:
    """One block per sweep of the pool.  A sweep the run repeated (the
    pool comes round again at block ``SWEEP_POOL``) counts once, with the
    mean of its repeats, so every sweep of the pool weighs the same
    however many sweeps fit the window; the few slowest shards set the
    tail percentiles, and a repeated slow sweep would double them."""
    merged = []
    for first in range(min(SWEEP_POOL, len(blocks))):
        same = blocks[first::SWEEP_POOL]
        if any(len(b.latencies) != len(same[0].latencies) for b in same):
            merged += same  # a shard failed: no trial-for-trial pairing
            continue
        merged.append(Block(
            same[0].ops, statistics.fmean(b.seconds for b in same),
            [statistics.fmean(ms) for ms in zip(*(b.latencies for b in same))],
        ))
    return merged


def _sweep(config, report: dict, manifest: dict, wall: float, runs: list,
           rss: list, result: Result) -> Block:
    """Judge one sweep's report and manifest; its block."""
    planned = plan_shards(config, manifest["site_totals"])
    result.attempted += sum(len(s.sites) for s in planned)
    if not report["complete"]:
        result.fail(f"sweep {config.seed}: campaign report is not complete")
    done = 0
    latencies = []
    for shard in planned:
        record = manifest["shards"].get(shard.shard_id, {})
        if record.get("status") != "done":
            for site in shard.sites:
                result.fail(f"{shard.shard_id} site {site}: "
                            f"shard {record.get('status', 'missing')}")
            continue
        trials = record["trials"]
        if [t["site"] for t in trials] != list(shard.sites):
            result.fail(f"{shard.shard_id}: trials do not match the plan")
            continue
        runs += zip([shard.app] * len(trials), shard.sites, shard.seeds,
                    trials)
        done += len(trials)
        per_trial = record["obs"]["run_seconds"] * 1000 / len(trials)
        latencies += [per_trial] * len(trials)
        if record["obs"].get("peak_rss_bytes"):
            rss.append(record["obs"]["peak_rss_bytes"])
    return Block(done, wall, latencies)


def _differential(seed: int, runs, result: Result) -> None:
    """Re-run a seeded sample of each app's trials on the Interpreter.
    ``runs`` holds ``(app, site, trial seed, record)``."""
    config = campaign_sweep(seed, 0)
    rng = random.Random(f"oracle:{seed}")
    for app, sample in ORACLE_SAMPLE.items():
        mine = [r for r in runs if r[0] == app]
        experiment = dataclasses.replace(_experiment(config, app),
                                         engine=Interpreter)
        for _, site, trial_seed, record in rng.sample(
                mine, min(sample, len(mine))):
            again = trial_record(app, experiment.trial_at(
                site, seed=trial_seed, burst=config.burst))
            if _plain(again) != record:
                result.fail(f"{app} site {site}: Interpreter re-run differs "
                            f"from the campaign's trial record")


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _replay(config, rec: Recorder, result: Result) -> dict:
    """Each app's experiment set-up, site count, reference run and the
    trials of one of its planned shards as separate layer calls, then the
    same shard through ``run_shard``.  Returns the count metrics."""
    counts: dict[str, float] = {
        "runtime.sites": 0, "runtime.reference_steps": 0,
        "dist.activations": 0,
    }
    for app in config.apps:
        layer = "dist" if app in DIST_APPS else "runtime"
        with rec.span("bench.experiment", "bench"):
            with rec.span("runtime.experiment_setup", layer):
                experiment = _experiment(config, app)
            with rec.span("runtime.site_count", layer):
                sites = experiment.total_steps()
            with rec.span("runtime.reference", layer):
                if app in DIST_APPS:
                    experiment.reference()
                else:
                    experiment.reference_groups()
            if app in DIST_APPS:
                with rec.span("dist.simulate", "dist"):
                    experiment.simulate(experiment.horizon())
                counts["dist.activations"] += (
                    experiment.nodes * experiment.horizon())
            # One planned shard per app, drawn from the seed: shards are
            # ordered by site, so the first would hold only early sites.
            shard = random.Random(f"trace:{config.seed}:{app}").choice(
                plan_shards(dataclasses.replace(config, apps=(app,)),
                            {app: sites}))
            trials = []
            for site, trial_seed in zip(shard.sites, shard.seeds):
                with rec.span(f"runtime.trial.{app}", layer):
                    trial = experiment.trial_at(
                        site, seed=trial_seed, burst=config.burst)
                trials.append(_plain(trial_record(app, trial)))
        with rec.span("bench.shard", "bench"):
            with rec.span("campaign.shard", layer):
                done = run_shard(shard.payload(config))
        result.attempted += len(trials)
        if done["trials"] != trials:
            result.fail(f"{app}: run_shard records differ from the same "
                        f"trials run one by one")
        counts["runtime.sites"] += sites
        counts["runtime.reference_steps"] += experiment.reference_steps()
        for verdict in VERDICTS:
            counts[f"campaign.{verdict.replace('-', '_')}.{app}"] = sum(
                1 for t in trials if t["verdict"] == verdict)
    return counts


def _traced(config, result: Result) -> TraceRun:
    rec = Recorder()
    t0 = time.perf_counter()
    untraced = _replay(config, Recorder(enabled=False), result)
    t1 = time.perf_counter()
    counts = _replay(config, rec, result)
    traced_s = time.perf_counter() - t1
    if counts != untraced:
        result.fail(f"count metrics differ between replays: "
                    f"{untraced} then {counts}")
    for name, value in counts.items():
        result.put(name, value, "count")
    trials = sum(v for k, v in counts.items() if k.startswith("campaign."))
    not_injected = sum(v for k, v in counts.items()
                       if k.startswith("campaign.not_injected."))
    result.put("campaign.injected_ratio",
               (trials - not_injected) / trials, "ratio")

    def total_ms(name: str) -> float:
        return sum(s.seconds for s in rec.by_name(name)) * 1000

    for name in ("runtime.experiment_setup", "runtime.site_count",
                 "runtime.reference", "dist.simulate", "campaign.shard"):
        result.put(f"{name}_ms", total_ms(name), "ms")
    result.put("dist.activation_us", total_ms("dist.simulate") * 1000
               / counts["dist.activations"], "us")
    trial_ms = 0.0
    for app in config.apps:
        sample = [s.seconds * 1000 for s in rec.by_name(f"runtime.trial.{app}")]
        prefix = "dist" if app in DIST_APPS else "runtime"
        result.put(f"{prefix}.trial_ms.{app}.p50",
                   statistics.median(sample), "ms")
        result.put(f"{prefix}.trial_ms.{app}.sum", sum(sample), "ms")
        trial_ms += sum(sample)
    # The share of run_shard's time that is not its trials: experiment
    # set-up, the reference run and, for the dist app, the site count.
    result.put("campaign.setup_share",
               1 - trial_ms / total_ms("campaign.shard"), "ratio")
    return TraceRun(rec, traced_s, t1 - t0)
