"""Shared configuration for the evaluation benchmarks.

Each benchmark regenerates one table or figure of the paper's Chapter 6
evaluation.  The result tables are printed and written to
``benchmarks/results/``; the pytest-benchmark timings measure the cost
of the underlying operation (one checker run, one inference run, one
injection trial, ...).

Every ``.txt`` result now has a machine-readable twin: the suites route
their timings through :mod:`repro.obs.bench`, so next to each
``<name>.txt`` lands a schema-versioned ``<name>.json`` that
``repro bench --compare`` can diff and gate on (see
``docs/BENCHMARKS.md``).

Scale: the paper uses 1,000 MP3 trials and 100 eye/robot trials.  The
default here is reduced so a full benchmark run stays in the minutes;
set ``REPRO_FULL=1`` to run at paper scale.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SPEC,
    bench_payload,
    scenario_result_from_samples,
)

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: (mp3 trials, eye trials, robot trials)
MP3_TRIALS = 1000 if FULL else 120
EYE_TRIALS = 100 if FULL else 60
ROBOT_TRIALS = 100 if FULL else 60
MP3_FRAMES = 60 if FULL else 36

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text, encoding="utf-8")
    print("\n" + text)


def write_bench_result(
    stem: str,
    *,
    kind: str,
    benchmark=None,
    samples=None,
    counters: dict | None = None,
    scenario: str | None = None,
) -> None:
    """Write ``results/<stem>.json`` — the schema-versioned twin of
    ``results/<stem>.txt``, carrying the suite's timing samples.

    ``benchmark`` is the pytest-benchmark fixture after it ran (one
    sample per round); alternatively pass raw ``samples`` in seconds.
    """
    if samples is None:
        samples = list(benchmark.stats.stats.data)
    write_bench_results(stem, [
        scenario_result_from_samples(
            scenario or f"paper/{stem}", kind, samples, counters=counters
        )
    ])


def write_bench_results(stem: str, results: list[dict]) -> None:
    """Write several scenario results into one ``results/<stem>.json``
    (the backend comparison emits one scenario per execution engine)."""
    repetitions = max(len(r["samples_seconds"]) for r in results)
    payload = BENCH_SPEC.validate(
        bench_payload(
            results, suite="paper-figures", warmup=0, repetitions=repetitions
        )
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{stem}.json").write_text(
        BENCH_SPEC.dumps(payload), encoding="utf-8"
    )


@pytest.fixture(scope="session")
def scale() -> dict:
    return {
        "mp3_trials": MP3_TRIALS,
        "eye_trials": EYE_TRIALS,
        "robot_trials": ROBOT_TRIALS,
        "mp3_frames": MP3_FRAMES,
        "full": FULL,
    }
