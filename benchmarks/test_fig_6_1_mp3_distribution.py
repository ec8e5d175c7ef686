"""Figure 6.1: distribution of the number of output samples required for
the MP3 decoder to return to normal behavior after an error injection.

Paper shape: all recoveries bounded (≤ 2,208 samples there); a fast mode
for injections into the final PCM transformation and a large peak where
the corrupted granule state (IMDCT overlap / synthesis window) carries
the error for extra granules.  Our analog reproduces the two modes: one
frame of samples for late-pipeline faults, up to three frames when the
overlap array or the 4-granule synthesis window is hit.
"""

from __future__ import annotations

from repro.apps import app_device_factory, load_app
from repro.runtime import RuntimeOptions, StabilizationExperiment
from repro.runtime.stabilization import recovery_histogram

from .conftest import write_result

SAMPLES_PER_FRAME = 16


def run_distribution(trials: int, frames: int, seed: int = 0):
    app = load_app("mp3_decoder")
    experiment = StabilizationExperiment(
        app.info,
        app_device_factory("mp3_decoder", frames),
        options=RuntimeOptions(ignore_errors=True),
    )
    results = experiment.run_trials(trials, seed=seed)
    return experiment, results


def test_fig_6_1_recovery_distribution(scale):
    experiment, trials = run_distribution(
        scale["mp3_trials"], scale["mp3_frames"]
    )
    corrupted = [t for t in trials if t.corrupted_output]
    recovered = [t for t in corrupted if not t.diverged]
    histogram = recovery_histogram(recovered, bin_size=SAMPLES_PER_FRAME)

    total_frames = len(experiment.reference_groups())
    late_diverged = [
        t for t in corrupted
        if t.diverged and t.injection_iteration >= total_frames - 3
    ]
    max_samples = max((t.recovery_samples for t in recovered), default=0)

    lines = [
        "Figure 6.1 — MP3 decoder: recovery distribution after fault injection",
        f"trials: {len(trials)}   corrupted outputs: {len(corrupted)} "
        f"(paper: 1000 trials, 466 corrupted)",
        f"injections too close to end of stream to observe recovery: "
        f"{len(late_diverged)}",
        f"unbounded divergences: "
        f"{len([t for t in corrupted if t.diverged]) - len(late_diverged)} "
        "(paper: 0 — all recoveries bounded)",
        f"maximum recovery distance: {max_samples} samples "
        f"(= {max_samples // SAMPLES_PER_FRAME} frames; paper bound: 2,208 "
        "samples)",
        "",
        "samples-to-recovery histogram (bin = one frame of 16 samples):",
    ]
    for bucket, count in histogram.items():
        bar = "#" * max(1, count * 50 // max(1, len(recovered)))
        lines.append(f"  {bucket:4d}-{bucket + SAMPLES_PER_FRAME - 1:4d}: "
                     f"{count:4d} {bar}")
    write_result("fig_6_1_mp3_distribution.txt", "\n".join(lines))

    # shape assertions: every observable fault recovers, within 3 frames
    assert corrupted
    assert all(
        t.injection_iteration >= total_frames - 3
        for t in corrupted if t.diverged
    )
    assert all(t.recovery_samples <= 3 * SAMPLES_PER_FRAME for t in recovered)
