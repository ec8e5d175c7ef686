"""Sections 6.2.2 / 6.2.3: eye tracker and robot controller fault
injection.

Paper: LEA — 100 injected executions (10 consecutive corrupted
instructions each), 8 with changed outputs, all back to correct values
by the next iteration (worst case 3, the history depth).  Sumo robot —
100 injected executions, 54 with changed outputs, all recovered on the
next iteration (stateless controller).
"""

from __future__ import annotations

from repro.apps import app_device_factory, load_app
from repro.runtime import RuntimeOptions, StabilizationExperiment

from .conftest import write_result

ITERATIONS = 60


def run_app_trials(name: str, trials: int, burst: int, seed: int):
    app = load_app(name)
    experiment = StabilizationExperiment(
        app.info,
        app_device_factory(name, ITERATIONS),
        options=RuntimeOptions(ignore_errors=True),
    )
    return experiment, experiment.run_trials(trials, seed=seed, burst=burst)


def summarize(name, experiment, trials, worst_case: int):
    corrupted = [t for t in trials if t.corrupted_output]
    total = len(experiment.reference_groups())
    observable = [t for t in corrupted if not t.diverged]
    truncated = [
        t for t in corrupted
        if t.diverged and t.injection_iteration >= total - worst_case
    ]
    real_divergence = len(corrupted) - len(observable) - len(truncated)
    by_iterations: dict[int, int] = {}
    for trial in observable:
        by_iterations[trial.recovery_iterations] = (
            by_iterations.get(trial.recovery_iterations, 0) + 1
        )
    lines = [
        f"{name}: {len(trials)} injected executions, "
        f"{len(corrupted)} with changed outputs",
        f"  recovery iterations histogram: {dict(sorted(by_iterations.items()))}",
        f"  injections too late to observe recovery: {len(truncated)}",
        f"  unbounded divergences: {real_divergence}",
    ]
    assert real_divergence == 0, name
    assert all(t.recovery_iterations <= worst_case for t in observable), name
    return lines


def test_sec_6_2_2_eye_tracker(scale):
    experiment, trials = run_app_trials(
        "eye_tracker", scale["eye_trials"], burst=10, seed=1
    )
    # Worst case: the 3-deep position history, plus one iteration because
    # a 10-operation burst can straddle an iteration boundary and inject
    # fresh corruption into the following iteration as well.
    lines = ["Section 6.2.2 — LEA eye tracker (burst of 10 corrupted ops, "
             "paper: 100 trials, 8 changed, recovery by next iteration; "
             "history-depth worst case 3 + 1 for burst spanning a frame)"]
    lines += summarize("eye_tracker", experiment, trials, worst_case=4)
    write_result("sec_6_2_2_eye_tracker.txt", "\n".join(lines))


def test_sec_6_2_3_sumo_robot(scale):
    experiment, trials = run_app_trials(
        "sumo_robot", scale["robot_trials"], burst=1, seed=2
    )
    # paper: resumed normal behavior in the next iteration
    lines = ["Section 6.2.3 — Sumo robot controller (paper: 100 trials, "
             "54 changed, recovery next iteration)"]
    lines += summarize("sumo_robot", experiment, trials, worst_case=1)
    write_result("sec_6_2_3_sumo_robot.txt", "\n".join(lines))
