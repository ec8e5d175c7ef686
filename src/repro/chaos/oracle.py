"""The convergence oracle: chaos must not change the answer.

A checked sjava program driven by fresh inputs recovers *exactly* from
arbitrary state corruption — that is the paper's legitimacy predicate.
The harness's own legitimacy predicate is the same statement one level
down: a campaign (or batch) run under seeded infrastructure fault
injection must terminate with statistics **identical** to the
fault-free run — zero lost shards, zero double-counted duplicates, and
a manifest that is resumable at every checkpoint.  This module runs
both sides and compares.

``repro chaos`` is the CLI face; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.chaos.injector import (
    ChaosConfig,
    ChaosInjector,
    NullChaosInjector,
    _event_name,
)
from repro.obs.context import installed, instruments

#: Bump when the chaos report layout changes.
CHAOS_SCHEMA = 1


def replay_worker_faults(injector: ChaosInjector) -> int:
    """Re-emit ``chaos.*`` events for faults that fired in *worker*
    processes (their event logs are process-local, so the only durable
    record is the ledger marker the dying worker wrote).  Returns the
    number of events replayed; the driver's own fires are skipped —
    they were emitted live."""
    import os

    events = instruments().event_log
    replayed = 0
    for record in injector.fired():
        if record.get("pid") == os.getpid():
            continue
        events.emit(
            _event_name(record["fault"]),
            "replayed from the cross-process chaos ledger",
            level="warn",
            fault=record["fault"],
            site=record["site"],
            key=record["key"],
            worker_pid=record.get("pid"),
        )
        replayed += 1
    return replayed


def _verdict(identical: bool, clean: dict, chaos: dict) -> dict:
    shards = chaos.get("shards", {})
    return {
        "identical": identical,
        "clean_complete": bool(clean.get("complete")),
        "chaos_complete": bool(chaos.get("complete")),
        "infra_failed": int(shards.get("infra_failed", 0)),
        "holds": (
            identical
            and bool(clean.get("complete"))
            and bool(chaos.get("complete"))
            and int(shards.get("infra_failed", 0)) == 0
        ),
    }


def run_campaign_oracle(
    config,
    chaos_config: ChaosConfig,
    *,
    work_dir: Path,
    max_workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_retries: int = 6,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run one campaign fault-free and once under ``chaos_config``;
    return the chaos report (oracle verdict, fault summary, both
    aggregate reports).

    Both runs checkpoint into ``work_dir`` (separate manifests), so the
    chaos run additionally exercises the torn-manifest write path and
    every resume is against a real file.  Trials are pure functions of
    the campaign config, which is what makes byte-identical ``apps``
    statistics the correct expectation rather than a lucky one.
    """
    from repro.runtime.campaign import CampaignRunner

    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    with installed(chaos=NullChaosInjector()):
        clean = CampaignRunner(
            config=config,
            checkpoint_path=work_dir / "clean.json",
            max_workers=max_workers,
            shard_timeout=shard_timeout,
            max_retries=max_retries,
            fresh=True,
            progress=progress,
        ).run()
    injector = ChaosInjector(chaos_config)
    with installed(chaos=injector):
        chaotic = CampaignRunner(
            config=config,
            checkpoint_path=work_dir / "chaos.json",
            max_workers=max_workers,
            shard_timeout=shard_timeout,
            max_retries=max_retries,
            fresh=True,
            progress=progress,
        ).run()
    replay_worker_faults(injector)
    identical = json.dumps(clean["apps"], sort_keys=True) == json.dumps(
        chaotic["apps"], sort_keys=True
    )
    oracle = _verdict(identical, clean, chaotic)
    instruments().event_log.emit(
        "chaos.oracle",
        level="info" if oracle["holds"] else "error",
        **oracle,
    )
    return {
        "schema": CHAOS_SCHEMA,
        "kind_detail": "campaign",
        "chaos_config": chaos_config.to_dict(),
        "oracle": oracle,
        "faults": injector.summary(),
        "clean": clean,
        "chaos": chaotic,
    }


def run_batch_oracle(
    paths: Sequence[str | Path],
    chaos_config: ChaosConfig,
    *,
    cache_dir: Path,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Batch-check ``paths`` fault-free, then twice under chaos against
    a disk cache at ``cache_dir`` — the first chaotic pass populates
    (and corrupts) entries, the second reads them back through the
    quarantine path — and compare per-file verdicts."""
    from repro.service.cache import ResultCache
    from repro.service.pool import CheckerPool

    def verdicts(results) -> list[dict]:
        return [
            {"path": r.path, "verdict": r.verdict,
             "error_count": r.error_count}
            for r in results
        ]

    with installed(chaos=NullChaosInjector()):
        clean_pool = CheckerPool(max_workers=1, cache=None)
        clean = verdicts(clean_pool.check_paths(paths))
    injector = ChaosInjector(chaos_config)
    with installed(chaos=injector):
        cache = ResultCache(disk_dir=Path(cache_dir))
        chaos_pool = CheckerPool(max_workers=1, cache=cache)
        first = verdicts(chaos_pool.check_paths(paths))
        second = verdicts(chaos_pool.check_paths(paths))
    if progress is not None:
        progress(
            f"batch oracle: {len(clean)} files, "
            f"{injector.summary()['injected']} faults injected"
        )
    identical = clean == first == second
    oracle = {
        "identical": identical,
        "clean_complete": True,
        "chaos_complete": True,
        "infra_failed": 0,
        "holds": identical,
    }
    instruments().event_log.emit(
        "chaos.oracle",
        level="info" if oracle["holds"] else "error",
        **oracle,
    )
    return {
        "schema": CHAOS_SCHEMA,
        "kind_detail": "batch",
        "chaos_config": chaos_config.to_dict(),
        "oracle": oracle,
        "faults": injector.summary(),
        "clean": {"files": clean},
        "chaos": {"files": second},
    }
