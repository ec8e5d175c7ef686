"""Differential fuzzing of the two execution backends.

Random well-formed programs (the generator from ``test_fuzz``) must
produce byte-identical outputs, iteration marks and error logs on the
tree-walking interpreter and the closure-compiling runner — in strict
mode, in crash-avoidance mode, and under fault injection (site numbering
must agree for injections to land identically).  Checkpointed injection
trials on the compiled runner must give the trial records of whole runs
on the interpreter.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import DIST_APP_NAMES
from repro.runtime import (
    ErrorInjector,
    Interpreter,
    RuntimeOptions,
    StabilizationExperiment,
)
from repro.runtime.campaign import trial_record
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from tests.conftest import analyze
from tests.test_fuzz import programs


def observe(backend, info, injector=None):
    engine = backend(
        info,
        IterationKeyedDevice(lambda n, i, k: (i * 13 + k) % 17, iterations=6),
        options=RuntimeOptions(ignore_errors=True),
        injector=injector,
    )
    engine.run()
    return engine.sink.values, engine.iteration_marks, engine.error_log


class TestBackendEquivalence:
    @given(programs(annotated=False))
    @settings(max_examples=80, deadline=None)
    def test_clean_outputs_identical(self, source):
        info = analyze(source)
        assert observe(Interpreter, info) == observe(CompiledRunner, info)

    @given(programs(annotated=False))
    @settings(max_examples=50, deadline=None)
    def test_injected_outputs_identical(self, source):
        info = analyze(source)
        results = []
        injectors = []
        for backend in (Interpreter, CompiledRunner):
            injector = ErrorInjector(target_step=11, seed=3, burst=2)
            injectors.append(injector)
            results.append(observe(backend, info, injector))
        assert results[0] == results[1]
        # the injectable-site numbering agrees exactly
        assert injectors[0].step == injectors[1].step
        assert injectors[0].injected_at == injectors[1].injected_at


def experiment_pair(info, iterations=8, **kwargs):
    """A checkpointed experiment and its whole-run interpreter oracle."""
    checkpointed = StabilizationExperiment(
        info,
        lambda: IterationKeyedDevice(
            lambda n, i, k: (i * 13 + k) % 17, iterations=iterations
        ),
        **kwargs,
    )
    return checkpointed, dataclasses.replace(
        checkpointed, engine=Interpreter
    )


#: The state differs from the reference only by the sign of a zero:
#: once ``t`` is corrupted, ``z`` becomes -0.0 and stays there, which
#: ``==`` cannot tell from the reference's 0.0 but ``SJ.toStr`` prints.
NEGATIVE_ZERO = """
class Main {
  float z;
  void run() {
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      float t = z * 1.0;
      if (t != 0.0) {
        z = -0.0;
      }
      SJ.print(SJ.toStr(z));
    }
  }
}
"""


class TestCheckpointedTrials:
    @given(
        programs(annotated=False),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_records_identical_to_whole_runs(self, source, picks, burst):
        info = analyze(source)
        checkpointed, whole = experiment_pair(info, step_budget_factor=4)
        total = checkpointed.total_steps()
        assert total == whole.total_steps()
        for pick in picks:
            site = pick % (total + 2)
            records = [
                trial_record("fuzz", e.trial_at(site, seed=pick, burst=burst))
                for e in (checkpointed, whole)
            ]
            assert records[0] == records[1]

    def test_negative_zero_never_rejoins_the_reference(self):
        checkpointed, whole = experiment_pair(analyze(NEGATIVE_ZERO))
        assert checkpointed.reference_groups()[0] == ["0.0"]
        diverged = 0
        for site in range(checkpointed.total_steps()):
            trial = checkpointed.trial_at(site, seed=1)
            assert trial == whole.trial_at(site, seed=1), site
            diverged += trial.diverged
        # Every corruption of ``t`` leaves -0.0 behind for good.
        assert diverged >= checkpointed.total_steps() // 2


class TestDistributedBackendEquivalence:
    """The fabric runs each node activation on an unchanged single-node
    backend; a whole multi-node simulation must therefore be
    backend-independent down to the per-node state digests."""

    @pytest.mark.parametrize("app", DIST_APP_NAMES)
    def test_clean_fabric_digests_identical(self, app):
        from repro.dist import dist_app_experiment

        results = []
        for engine in (Interpreter, CompiledRunner):
            experiment = dist_app_experiment(app, engine=engine)
            sim = experiment.reference()
            results.append((
                sim.trajectory,
                [sim.node_digest(i) for i in range(experiment.nodes)],
            ))
        assert results[0] == results[1]

    def test_injected_fabric_trials_identical(self):
        from repro.dist import dist_app_experiment
        from repro.runtime.campaign import trial_record

        records = []
        for engine in (Interpreter, CompiledRunner):
            experiment = dist_app_experiment("herman_bit", engine=engine)
            site = experiment.total_steps() // 2
            records.append(
                trial_record("herman_bit", experiment.trial_at(site, seed=2))
            )
        assert records[0] == records[1]
