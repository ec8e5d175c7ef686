"""Checkpointed injection trials (``repro.runtime.checkpoint``).

A trial on the compiled engine starts from the reference's snapshot at
the boundary before its fault and stops at the first boundary where its
state equals the reference's.  Every test here holds that path against
the independent oracle: the same experiment with ``engine=Interpreter``,
which runs every trial from iteration (or round) 0 to the end.  Every
field of every trial must be identical.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.apps import DIST_APP_NAMES, all_app_names, resolve_experiment
from repro.obs import RingBufferSink, Tracer
from repro.obs.context import installed
from repro.runtime.campaign import trial_record
from repro.runtime.checkpoint import decode, encode
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.injection import ErrorInjector
from repro.runtime.interpreter import Interpreter, _Frame
from repro.runtime.values import ArrayVal, BufferVal, ObjectVal

APPS = all_app_names()
SINGLE_NODE = [app for app in APPS if app not in DIST_APP_NAMES]


def pair(app: str, **kwargs):
    """The checkpointed experiment and its whole-run oracle."""
    fast = resolve_experiment(app, **kwargs)
    return fast, dataclasses.replace(fast, engine=Interpreter)


def same_trial(app: str, experiments, site: int, seed: int, burst: int = 1):
    fast, whole = experiments
    checkpointed = fast.trial_at(site, seed=seed, burst=burst)
    oracle = whole.trial_at(site, seed=seed, burst=burst)
    assert checkpointed == oracle, (app, site, seed, burst)
    assert trial_record(app, checkpointed) == trial_record(app, oracle)
    return checkpointed


def executed(experiment, site: int, seed: int, burst: int = 1) -> int:
    """The ``iterations`` counter of one trial's span."""
    ring = RingBufferSink()
    with installed(tracer=Tracer(sinks=(ring,))):
        experiment.trial_at(site, seed=seed, burst=burst)
    (span,) = [s for s in ring.roots if s.name in ("trial", "dist_trial")]
    return span.counters["iterations"]


def last_iteration_site(experiment) -> int:
    """The first injectable site of the last iteration (or round)."""
    if hasattr(experiment, "node_site_counts"):
        experiment.reference()
        node = experiment.nodes - 1
        marks = experiment._site_marks[experiment.rounds - 1]
        return experiment.site_of(node, marks[node])
    return experiment._reference_run().sites_at[-2]


def stratified_sites(app: str, experiment) -> list[int]:
    total = experiment.total_steps()
    rng = random.Random(app)
    strata = [rng.randrange(total * i // 3, total * (i + 1) // 3)
              for i in range(3)]
    return sorted({0, last_iteration_site(experiment), total - 1, *strata})


class TestTrialsMatchWholeRuns:
    @pytest.mark.parametrize("app", APPS)
    def test_stratified_sites(self, app):
        experiments = pair(app, step_budget_factor=64)
        for site in stratified_sites(app, experiments[0]):
            same_trial(app, experiments, site, seed=site % 97)

    @pytest.mark.parametrize("app", APPS)
    def test_budget_below_reference_steps(self, app):
        fast = resolve_experiment(app)
        # Half the steps of the injectable span (a fabric's recovery
        # window holds no sites).
        share = fast.rounds / fast.horizon() if app in DIST_APP_NAMES else 1
        budget = int(fast.reference_steps() * share / 2)
        experiments = pair(app, step_budget=budget)
        total = experiments[0].total_steps()
        trials = [
            same_trial(app, experiments, site, seed=5)
            for site in (0, total * 3 // 4, total - 1)
        ]
        assert all(t.timed_out for t in trials)
        # Early sites fire before the budget runs out; late ones are
        # never reached, down to a budget spent before the restored
        # boundary.
        assert trials[0].injection_iteration is not None
        assert trials[-1].injection_iteration is None

    @pytest.mark.parametrize("app", APPS)
    def test_budget_exceeded_only_in_the_tail(self, app):
        fast, whole = pair(app)
        total = fast.total_steps()
        horizon = (
            fast.horizon() if app in DIST_APP_NAMES
            else len(fast.reference_groups())
        )
        for site in range(total // 5, total, max(1, total // 10)):
            if executed(fast, site, seed=3) < horizon // 2:
                break
        else:
            pytest.fail(f"{app}: no trial rejoined the reference early")
        # The whole run's step count, then a budget one step short of
        # it: the watchdog fires in the tail the checkpointed trial
        # takes from the reference.
        steps = _whole_run_steps(whole, site, seed=3)
        experiments = pair(app, step_budget=steps - 1)
        trial = same_trial(app, experiments, site, seed=3)
        assert trial.timed_out
        assert trial.injection_iteration is not None
        # ... and one step more is no timeout at all.
        experiments = pair(app, step_budget=steps)
        assert not same_trial(app, experiments, site, seed=3).timed_out


def _whole_run_steps(whole, site: int, seed: int) -> int:
    """Steps of the whole injected run, without a budget."""
    if not hasattr(whole, "simulate"):
        ring = RingBufferSink()
        with installed(tracer=Tracer(sinks=(ring,))):
            whole.trial_at(site, seed=seed)
        (span,) = [s for s in ring.roots if s.name == "trial"]
        return span.counters["steps"]
    from repro.dist.harness import _RoundInjector

    node, local = whole.site_location(site)
    injector = _RoundInjector(ErrorInjector(local, seed=seed + 1))
    return whole._simulate_trial(node, injector, 0).steps


class TestEdgeSites:
    @pytest.mark.parametrize("boundary", [10, 41])
    def test_eye_tracker_burst_crosses_a_boundary(self, boundary):
        experiments = pair("eye_tracker", step_budget_factor=64)
        start = experiments[0]._reference_run().sites_at[boundary]
        for site in (start - 5, start - 9, start - 1):
            same_trial("eye_tracker", experiments, site, seed=site, burst=10)

    @pytest.mark.parametrize("app", ["gradient_channel", "herman_bit"])
    def test_fabric_burst_crosses_a_round(self, app):
        experiments = pair(app)
        fast = experiments[0]
        fast.reference()
        for node in (0, fast.nodes - 1):
            for round_index in (2, fast.rounds // 2):
                start = fast._site_marks[round_index][node]
                for local in (start - 9, start - 5, start - 1):
                    assert local >= 0
                    site = fast.site_of(node, local)
                    same_trial(app, experiments, site, seed=site, burst=10)

    @pytest.mark.parametrize("app", ["wind_sensor", "herman_bit"])
    def test_burst_starting_before_the_first_site(self, app):
        experiments = pair(app)
        same_trial(app, experiments, -3, seed=4, burst=10)

    def test_heavy_site_logging_thousands_of_errors(self):
        # A corrupted loop bound re-reads its input ~25k times, logging
        # an ignored bounds error each time.
        experiments = pair("mp3_decoder", step_budget_factor=64)
        trial = same_trial("mp3_decoder", experiments, 17611, seed=1)
        assert trial.error_log_size > 1000

    @pytest.mark.parametrize("app", ["wind_sensor", "mp3_decoder"])
    def test_corruption_equal_to_the_value_is_not_injected(self, app):
        experiments = pair(app)
        site = experiments[0].total_steps() // 2
        value = _site_value(experiments[1], site)
        seed = next(
            s for s in range(1_000_000)
            if random.Random(s + 1).randint(-32768, 32767) == value
        )
        trial = same_trial(app, experiments, site, seed=seed)
        assert trial.injection_iteration is None
        assert not trial.corrupted_output

    @pytest.mark.parametrize("app", SINGLE_NODE)
    def test_site_past_the_last_boundary(self, app):
        experiments = pair(app)
        site = experiments[0].total_steps() + 3
        trial = same_trial(app, experiments, site, seed=1)
        assert trial.injection_iteration is None


def _site_value(whole, site: int) -> int:
    """The clean value at an int-valued site."""
    values = []

    class Recorder:
        def begin_iteration(self, iteration):
            pass

        def site(self, value, node):
            values.append(value)
            return value

    whole._run(Recorder())
    assert type(values[site]) is int
    return values[site]


class TestEarlyExit:
    def test_mp3_trial_executes_a_few_iterations(self):
        fast, whole = pair("mp3_decoder")
        site = fast.total_steps() // 4
        assert executed(fast, site, seed=2) <= 5
        assert executed(whole, site, seed=2) == 40

    def test_gradient_channel_trial_executes_a_few_rounds(self):
        fast, whole = pair("gradient_channel")
        site = fast.total_steps() // 4
        horizon = fast.horizon()
        assert executed(fast, site, seed=2) < horizon // 2
        assert executed(whole, site, seed=2) == horizon


class TestCachesAreNotCopied:
    def test_replace_recomputes_the_single_node_reference(self):
        experiment = resolve_experiment("wind_sensor")
        groups = experiment.reference_groups()
        oracle = dataclasses.replace(experiment, engine=Interpreter)
        assert oracle._reference is None
        assert oracle.reference_groups() == groups
        assert oracle._reference is not experiment._reference
        # The whole-run oracle takes no snapshots.
        assert oracle._reference.snapshots is None
        assert experiment._reference.snapshots

    def test_replace_recomputes_the_dist_reference(self):
        experiment = resolve_experiment("herman_bit")
        counts = experiment.node_site_counts()
        oracle = dataclasses.replace(experiment, engine=Interpreter)
        assert oracle._reference is None and oracle._site_marks is None
        assert oracle.node_site_counts() == counts
        assert oracle.reference() is not experiment.reference()

    def test_one_clean_run_serves_sites_and_reference(self):
        experiment = resolve_experiment("eye_tracker")
        sites = experiment.total_steps()
        reference = experiment._reference
        assert experiment.reference_groups() is reference.groups
        assert experiment.reference_steps() == reference.steps
        assert sites == reference.sites


class TestStateEncoding:
    def encode(self, this, **variables):
        engine = Interpreter.__new__(Interpreter)
        engine._statics = {}
        engine._statics_ready = set()
        engine.device = IterationKeyedDevice(lambda n, i, k: 0, 1)
        frame = _Frame(this=this)
        frame.vars = dict(variables)
        return encode(engine, frame)

    def test_float_bits_and_types_are_exact(self):
        assert self.encode(None, x=0.0) != self.encode(None, x=-0.0)
        assert self.encode(None, x=1) != self.encode(None, x=True)
        assert self.encode(None, x=1) != self.encode(None, x=1.0)
        assert self.encode(None, x=float("nan")) == self.encode(
            None, x=float("nan")
        )
        mixed = ArrayVal(2, 0.0)
        mixed.items[1] = 1
        assert self.encode(None, a=mixed) != self.encode(
            None, a=ArrayVal(2, 0.0)
        )

    def test_aliasing_is_part_of_the_state(self):
        shared = ArrayVal(3, 0)
        aliased = ObjectVal("C", {"a": shared, "b": shared})
        apart = ObjectVal("C", {"a": ArrayVal(3, 0), "b": ArrayVal(3, 0)})
        assert self.encode(aliased) != self.encode(apart)

    def test_decode_rebuilds_an_equal_heap(self):
        shared = BufferVal(2, 0.0)
        shared.insert(-0.0)
        this = ObjectVal("C", {"buf": shared, "flag": True, "s": "x"})
        this.fields["self"] = this
        tokens = self.encode(this, b=shared, n=None, i=7)
        rebuilt, variables, statics, ready, device = decode(tokens)
        assert rebuilt is not this
        assert rebuilt.fields["self"] is rebuilt
        assert variables["b"] is rebuilt.fields["buf"]
        assert str(variables["b"].items[0]) == "-0.0"
        assert self.encode(rebuilt, **variables) == tokens
