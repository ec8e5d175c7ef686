"""Stabilization experiments (Section 6.2).

Runs a checked program twice on identical inputs — once clean, once with
a fault injected at a uniformly chosen memory/arithmetic operation — and
measures how many output samples the program needs to return to exactly
the reference behavior.

Outputs are compared per event-loop iteration: the error model assumes
input reads happen unconditionally each iteration, so devices are keyed
by iteration (see :class:`IterationKeyedDevice` in
:mod:`repro.runtime.devices` users can supply any such device factory)
and a corrupted iteration cannot shift the framing of later ones.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.lang.symtab import ProgramInfo
from repro.obs.context import instruments
from repro.runtime.checkpoint import (
    Rejoined,
    Snapshot,
    capture,
    encode,
    restore,
)
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import DeviceBus, IterationKeyedDevice
from repro.runtime.injection import ErrorInjector, StepCounter
from repro.runtime.interpreter import (
    Interpreter,
    RuntimeOptions,
    StepBudgetExceeded,
    _Frame,
    reused,
)

DeviceFactory = Callable[[], DeviceBus]


@dataclass
class InjectionTrial:
    """Outcome of a single fault-injection run."""

    target_step: int
    injection_iteration: Optional[int]
    corrupted_output: bool
    #: Number of reference output samples from the start of the injection
    #: iteration until outputs match the reference again; None when the
    #: output never deviated (masked fault).
    recovery_samples: Optional[int]
    #: Number of event-loop iterations until recovery (same convention).
    recovery_iterations: Optional[int]
    #: True if the run never returned to the reference behavior.
    diverged: bool = False
    #: True if the run tripped the step-budget watchdog (a corrupted
    #: value induced a runaway computation); campaigns record these as
    #: ``timeout`` rather than letting them hang a worker.
    timed_out: bool = False
    error_log_size: int = 0
    #: Convergence telemetry (None for not-injected and timed-out runs):
    #: per-iteration count of output samples deviating from the
    #: reference (:func:`divergence_series`), and — for recovered runs —
    #: the cumulative replayed-sample curve whose plateau equals
    #: ``recovery_samples`` (:func:`convergence_series`).
    divergence: Optional[list[int]] = None
    convergence: Optional[list[int]] = None
    #: Distributed-trial extras (repro.dist), all additive: the node the
    #: fault was injected into, the per-round per-node divergence matrix
    #: (``node_divergence[r][i]`` is 1 when node ``i``'s state differs
    #: from the reference after round ``r``), and one CRC32 digest per
    #: node over its full state trajectory.  None for single-node trials.
    node: Optional[int] = None
    node_divergence: Optional[list[list[int]]] = None
    node_digests: Optional[list[str]] = None


def recovery_distance(
    reference_groups: list[list[object]],
    faulty_groups: list[list[object]],
    injection_iteration: int,
) -> tuple[Optional[int], Optional[int], bool]:
    """Returns (samples, iterations, diverged).

    Recovery iteration: the first iteration r >= injection such that all
    per-iteration output groups from r onward equal the reference's.
    """
    if faulty_groups == reference_groups:
        return None, None, False  # fault masked: no visible corruption
    if len(faulty_groups) < len(reference_groups):
        # The faulty run ended early (e.g. a crash cut the event loop
        # short): the missing tail is itself a visible divergence, even
        # when the truncated prefix matches the reference exactly.
        return None, None, True
    recovery = None
    # Recovery requires the *entire* faulty tail from r onward to equal
    # the reference tail — full slices, so a faulty run with extra
    # trailing groups can never claim recovery.  r == len(reference) is
    # excluded: with no matching trailing output we cannot claim the
    # program recovered, so such runs count as diverged (give
    # experiments enough trailing iterations to observe recovery).
    for r in range(injection_iteration, len(reference_groups)):
        if faulty_groups[r:] == reference_groups[r:]:
            recovery = r
            break
    if recovery is None:
        return None, None, True
    samples = sum(
        len(reference_groups[i]) for i in range(injection_iteration, recovery)
    )
    return samples, recovery - injection_iteration, False


def divergence_series(
    reference_groups: list[list[object]],
    faulty_groups: list[list[object]],
) -> list[int]:
    """Per-iteration divergence-set size: how many output samples of
    iteration ``i`` differ between the faulty run and the reference
    (positions missing from either run count as differing).  The series
    the paper's Figures 6.1/6.2 make visible — it spikes at the
    injection point and decays to zero as execution re-converges."""
    length = max(len(reference_groups), len(faulty_groups))
    series: list[int] = []
    for i in range(length):
        reference = reference_groups[i] if i < len(reference_groups) else []
        faulty = faulty_groups[i] if i < len(faulty_groups) else []
        width = max(len(reference), len(faulty))
        series.append(sum(
            1 for j in range(width)
            if j >= len(reference) or j >= len(faulty)
            or reference[j] != faulty[j]
        ))
    return series


def convergence_series(
    reference_groups: list[list[object]],
    injection_iteration: int,
    recovery_iterations: int,
) -> list[int]:
    """Cumulative reference output samples replayed since the injection
    iteration, saturating once outputs re-converge.  By construction
    the final point (the plateau) equals the trial's recovery distance
    in samples — the scalar ``recovery_samples`` records."""
    recovery = injection_iteration + recovery_iterations
    series: list[int] = []
    total = 0
    for i in range(injection_iteration, len(reference_groups)):
        if i < recovery:
            total += len(reference_groups[i])
        series.append(total)
    return series


@dataclass
class ReferenceRun:
    """An experiment's one clean run: its outputs and meters, and — when
    trials can resume — a snapshot at every iteration boundary."""

    groups: list[list[object]]
    steps: int
    #: Injectable sites executed (the uniform-target space of trials).
    sites: int
    outputs: list[object]
    marks: list[int]
    error_log: list[str]
    #: ``snapshots[i]`` is the engine at the top of event-loop pass
    #: ``i``; None when trials run whole (see
    #: :meth:`StabilizationExperiment._checkpointed`).
    snapshots: Optional[list[Snapshot]]

    def __post_init__(self) -> None:
        self.sites_at = [s.sites for s in self.snapshots or ()]


class _UntilSpent:
    """Feeds an engine's sites to ``inner`` until its burst is spent,
    then takes itself off the engine: the rest of a checkpointed run
    pays no injection hook, and ``engine.injector is None`` tells the
    boundary check that the fault is in."""

    def __init__(self, engine: Interpreter, inner: ErrorInjector) -> None:
        self.engine = engine
        self.inner = inner
        self.last = inner.target_step + inner.burst - 1

    def begin_iteration(self, iteration: int) -> None:
        self.inner.begin_iteration(iteration)

    def site(self, value: object, node: object) -> object:
        if self.inner.step >= self.last:
            self.engine.injector = None
        return self.inner.site(value, node)


@dataclass
class StabilizationExperiment:
    """Orchestrates reference + injected runs of one program.

    Injected runs are *checkpointed* on the compiled engine: a trial
    starts from the reference's snapshot just before its target site and
    stops at the first boundary after the fault where its state equals
    the reference's, filling in the rest from the reference (see
    :mod:`repro.runtime.checkpoint` and DESIGN.md).  With
    ``engine=Interpreter`` every trial runs the whole program — the
    independent oracle the checkpointed path is tested against.
    """

    info: ProgramInfo
    device_factory: DeviceFactory
    options: RuntimeOptions = field(
        default_factory=lambda: RuntimeOptions(ignore_errors=True)
    )
    #: Execution backend; the closure-compiling runner is observationally
    #: identical to the interpreter (differentially tested) and 2-4x
    #: faster, which matters at paper-scale trial counts.
    engine: type = CompiledRunner
    #: Watchdog for *injected* runs only (the reference run is never
    #: budgeted): an absolute step cap, or a multiple of the reference
    #: run's step count.  ``step_budget`` wins when both are set; with
    #: neither, injected runs are unbudgeted (the historical behavior).
    step_budget: Optional[int] = None
    step_budget_factor: Optional[int] = None
    # Caches, never copied by dataclasses.replace: a replaced experiment
    # (another engine, say) computes its own reference.
    _reference: Optional[ReferenceRun] = field(
        default=None, init=False, repr=False
    )
    _runner: Optional[Interpreter] = field(
        default=None, init=False, repr=False
    )

    def _engine(
        self,
        injector: Optional[object],
        options: Optional[RuntimeOptions] = None,
    ) -> Interpreter:
        """The experiment's one engine (compiled once), reset for a run
        on a fresh device."""
        self._runner = reused(
            self._runner, self.engine, self.info, self.device_factory(),
            options if options is not None else self.options, injector,
        )
        return self._runner

    def _run(
        self,
        injector: Optional[object],
        options: Optional[RuntimeOptions] = None,
    ) -> Interpreter:
        interpreter = self._engine(injector, options)
        interpreter.run()
        return interpreter

    def _checkpointed(self, engine: Interpreter) -> bool:
        """Trials resume from snapshots only on the compiled engine, with
        inputs keyed by iteration and an event loop at the top level of
        its method."""
        return (
            isinstance(engine, CompiledRunner)
            and isinstance(engine.device, IterationKeyedDevice)
            and engine.resumable()
        )

    def _reference_run(self) -> ReferenceRun:
        """The one clean run: outputs, steps and injectable sites (a
        :class:`StepCounter` rides along without changing a value), plus
        the boundary snapshots."""
        if self._reference is None:
            counter = StepCounter()
            engine = self._engine(counter)
            snapshots: Optional[list[Snapshot]] = None
            if self._checkpointed(engine):
                snapshots = []
                engine.boundary = lambda frame: snapshots.append(
                    capture(engine, frame, counter.step)
                )
            try:
                engine.run()
            finally:
                if snapshots is not None:
                    engine.boundary = None
            self._reference = ReferenceRun(
                groups=engine.outputs_by_iteration(),
                steps=engine.steps,
                sites=counter.step,
                outputs=engine.sink.values,
                marks=engine.iteration_marks,
                error_log=engine.error_log,
                snapshots=snapshots,
            )
        return self._reference

    def reference_groups(self) -> list[list[object]]:
        return self._reference_run().groups

    def reference_steps(self) -> int:
        """Execution steps of the clean run (the watchdog baseline)."""
        return self._reference_run().steps

    def total_steps(self) -> int:
        """Number of injectable sites in a clean run."""
        return self._reference_run().sites

    def _trial_budget(self) -> Optional[int]:
        if self.step_budget is not None:
            return self.step_budget
        if self.step_budget_factor is not None:
            return max(1000, self.step_budget_factor * self.reference_steps())
        return None

    def trial(self, seed: int, burst: int = 1) -> InjectionTrial:
        """One injected run with a uniformly chosen target site."""
        rng = random.Random(seed)
        target = rng.randrange(max(1, self.total_steps()))
        return self.trial_at(target, seed=seed, burst=burst)

    def trial_at(
        self, target_step: int, seed: int, burst: int = 1
    ) -> InjectionTrial:
        """One injected run corrupting the given site.  This is the unit
        campaigns sweep: exhaustive/stratified plans enumerate sites
        explicitly instead of sampling them."""
        with instruments().tracer.span(
            "trial", site=target_step, seed=seed, burst=burst
        ) as span:
            trial = self._trial_at(target_step, seed, burst, span)
            span.set_attr("timed_out", trial.timed_out)
            span.set_attr("diverged", trial.diverged)
        return trial

    def _restore(
        self, engine: Interpreter, injector: ErrorInjector,
        reference: ReferenceRun,
    ) -> Optional[_Frame]:
        """Put ``engine`` at the last boundary before the target site;
        the frame to resume, or None to run from the start."""
        if reference.snapshots is None:
            return None
        index = bisect_right(reference.sites_at, injector.target_step) - 1
        if index < 0:
            return None
        snapshot = reference.snapshots[index]
        injector.step = snapshot.sites
        # Where a full run's injector clock stands at this boundary.
        injector.begin_iteration(max(index - 1, 0))
        return restore(
            engine, snapshot,
            reference.outputs, reference.error_log, reference.marks,
        )

    def _execute(
        self, engine: Interpreter, injector: ErrorInjector,
        reference: ReferenceRun, frame: Optional[_Frame],
    ) -> tuple[list[list[object]], int, int]:
        """Run the injected program; its full-run ``(output groups,
        steps, error-log size)``.  A checkpointed run stops at the first
        boundary after the burst where its state equals the reference's
        and takes the rest of the run from the reference."""
        snapshots = reference.snapshots
        if snapshots is not None:
            engine.injector = _UntilSpent(engine, injector)

            def boundary(frame: _Frame) -> None:
                index = engine.iteration
                if (
                    engine.injector is None  # the burst is spent
                    and index < len(snapshots)
                    and encode(engine, frame) == snapshots[index].state
                ):
                    raise Rejoined()

            engine.boundary = boundary
        try:
            if frame is None:
                engine.run()
            else:
                engine.resume(frame)
        except Rejoined:
            index = engine.iteration
            snapshot = snapshots[index]
            steps = engine.steps + reference.steps - snapshot.steps
            budget = engine.options.step_budget
            if budget is not None and steps > budget:
                # Steps only grow: the full run tripped the watchdog in
                # the reference's tail.
                raise StepBudgetExceeded(
                    f"step budget of {budget} execution steps exhausted"
                ) from None
            return (
                engine.outputs_by_iteration() + reference.groups[index:],
                steps,
                len(engine.error_log) + len(reference.error_log)
                - snapshot.errors,
            )
        finally:
            if snapshots is not None:
                engine.boundary = None
        return (
            engine.outputs_by_iteration(), engine.steps,
            len(engine.error_log),
        )

    def _trial_at(
        self, target_step: int, seed: int, burst: int, span
    ) -> InjectionTrial:
        injector = ErrorInjector(
            target_step=target_step, seed=seed + 1, burst=burst
        )
        budget = self._trial_budget()
        options = (
            replace(self.options, step_budget=budget)
            if budget is not None else self.options
        )
        events = instruments().event_log
        reference = self._reference_run()
        engine = self._engine(injector, options)
        frame = self._restore(engine, injector, reference)
        start = engine.iteration
        try:
            faulty_groups, steps, errors = self._execute(
                engine, injector, reference, frame
            )
        except StepBudgetExceeded:
            # The corrupted run never finished: a runaway loop or
            # explosion of work.  Recorded as a timeout, never a hang.
            span.count("steps", budget or 0)
            span.count("iterations", engine.iteration - start)
            events.emit(
                "trial.timeout",
                "step-budget watchdog stopped a runaway injected run",
                level="warn",
                site=target_step,
                seed=seed,
                injection_iteration=injector.injection_iteration,
                step_budget=budget,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=injector.injection_iteration,
                corrupted_output=True,
                recovery_samples=None,
                recovery_iterations=None,
                timed_out=True,
            )
        span.count("steps", steps)
        span.count("ignored_errors", errors)
        span.count("iterations", engine.iteration - start)
        reference_groups = reference.groups
        injection_iteration = injector.injection_iteration
        if injection_iteration is None:
            # The injector replaced a value with an equal one or never hit
            # a corruptible site: no fault was actually introduced.
            events.emit(
                "trial.not_injected", level="debug",
                site=target_step, seed=seed,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=None,
                corrupted_output=False,
                recovery_samples=None,
                recovery_iterations=None,
                error_log_size=errors,
            )
        events.emit(
            "trial.corrupted",
            "fault injected",
            level="info",
            site=target_step,
            seed=seed,
            iteration=injection_iteration,
        )
        samples, iterations, diverged = recovery_distance(
            reference_groups, faulty_groups, injection_iteration
        )
        divergence = divergence_series(reference_groups, faulty_groups)
        convergence = (
            convergence_series(
                reference_groups, injection_iteration, iterations
            )
            if iterations is not None else None
        )
        if diverged:
            events.emit(
                "trial.diverged",
                "outputs never returned to the reference behavior",
                level="error",
                site=target_step,
                iteration=injection_iteration,
            )
        elif samples is not None:
            events.emit(
                "trial.recovered",
                "outputs re-converged to the reference",
                level="info",
                site=target_step,
                iteration=injection_iteration,
                recovery_samples=samples,
                recovery_iterations=iterations,
            )
        else:
            events.emit(
                "trial.masked", level="debug",
                site=target_step, iteration=injection_iteration,
            )
        return InjectionTrial(
            target_step=target_step,
            injection_iteration=injection_iteration,
            corrupted_output=samples is not None or diverged,
            recovery_samples=samples,
            recovery_iterations=iterations,
            diverged=diverged,
            error_log_size=errors,
            divergence=divergence,
            convergence=convergence,
        )

    def run_trials(
        self, count: int, seed: int = 0, burst: int = 1
    ) -> list[InjectionTrial]:
        return [self.trial(seed + i, burst=burst) for i in range(count)]


def corrupted_trials(trials: list[InjectionTrial]) -> list[InjectionTrial]:
    return [t for t in trials if t.corrupted_output]


def recovery_histogram(
    trials: list[InjectionTrial], bin_size: int
) -> dict[int, int]:
    """Histogram of recovery distances in output samples (Fig. 6.1)."""
    histogram: dict[int, int] = {}
    for trial in trials:
        if trial.recovery_samples is None:
            continue
        bucket = (trial.recovery_samples // bin_size) * bin_size
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items()))
