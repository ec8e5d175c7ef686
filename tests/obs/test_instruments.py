"""The one installed instrumentation context: null defaults, scoped
install/restore for all five fields, and the off-state cost of the
shared section anchor."""

from __future__ import annotations

import threading
import time

import pytest

from repro.chaos.injector import ChaosConfig, ChaosInjector
from repro.obs import context as context_module
from repro.obs.events import EventLog
from repro.obs.context import (
    Instruments,
    NullChaosInjector,
    NullEventLog,
    NullProfiler,
    NullResourceMonitor,
    NullTracer,
    _NULL_SECTION,
    installed,
    instruments,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.resources import ResourceMonitor
from repro.obs.trace import Tracer

#: field -> (null class, factory for a live instance)
FIELDS = {
    "tracer": (NullTracer, Tracer),
    "event_log": (NullEventLog, EventLog),
    "profiler": (
        NullProfiler,
        lambda: SamplingProfiler(interval_seconds=0.005, frames=dict),
    ),
    "monitor": (
        NullResourceMonitor,
        lambda: ResourceMonitor(rss_supplier=lambda: 0, track_gc=False,
                                trace_allocations=False),
    ),
    "chaos": (
        NullChaosInjector, lambda: ChaosInjector(ChaosConfig(rate=0.0))
    ),
}


def test_fields_are_the_five_planes():
    assert Instruments._fields == tuple(FIELDS)


class TestInstalled:
    @pytest.mark.parametrize("field", FIELDS)
    def test_restores_previous(self, field):
        """Scoped install for each of the five planes: the live object
        while the block runs, ``None`` for the null default, and the
        previous value back on exit."""
        null_class, make = FIELDS[field]
        before = getattr(instruments(), field)
        assert isinstance(before, null_class)
        live = make()
        with installed(**{field: live}) as context:
            assert getattr(context, field) is live
            assert getattr(instruments(), field) is live
            with installed(**{field: None}):
                assert isinstance(getattr(instruments(), field), null_class)
            assert getattr(instruments(), field) is live
        assert getattr(instruments(), field) is before

    def test_leaves_other_fields_alone(self):
        tracer, log = Tracer(), EventLog()
        with installed(tracer=tracer):
            with installed(event_log=log):
                assert instruments().tracer is tracer
                assert instruments().event_log is log
            assert instruments().tracer is tracer
            assert isinstance(instruments().event_log, NullEventLog)

    def test_a_field_replaced_meanwhile_is_kept(self, monkeypatch):
        """Restore is per field and only undoes this install: a value
        another owner installed in between (a second daemon, say)
        stays in place."""
        monkeypatch.setattr(context_module, "_current", instruments())
        mine, theirs = Tracer(), Tracer()
        scope = installed(tracer=mine)
        scope.__enter__()
        other = installed(tracer=theirs)
        other.__enter__()
        scope.__exit__(None, None, None)
        assert instruments().tracer is theirs

    def test_is_process_wide(self):
        tracer = Tracer()
        seen = []
        with installed(tracer=tracer):
            thread = threading.Thread(
                target=lambda: seen.append(instruments().tracer)
            )
            thread.start()
            thread.join()
        assert seen == [tracer]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unexpected field"):
            with installed(tracers=Tracer()):
                pass


class TestSection:
    def test_null_section_is_the_shared_noop(self):
        assert instruments().section("interpreter.step") is _NULL_SECTION

    def test_fans_out_to_profiler_and_monitor(self):
        profiler = FIELDS["profiler"][1]()
        monitor = FIELDS["monitor"][1]()
        tid = threading.get_ident()
        with installed(profiler=profiler, monitor=monitor):
            with instruments().section("checker.check"):
                assert profiler._sections[tid] == ["checker.check"]
        assert profiler._sections[tid] == []
        assert monitor.sections() == [
            {"name": "checker.check", "count": 1, "net_alloc_bytes": 0}
        ]

    def test_one_live_plane_gets_the_section(self):
        monitor = FIELDS["monitor"][1]()
        with installed(monitor=monitor):
            with instruments().section("infer.fixpoint"):
                pass
        assert [row["name"] for row in monitor.sections()] == [
            "infer.fixpoint"
        ]

    def test_noop_overhead_is_negligible(self):
        """The hot anchors (interpreter step loop, checker, inference
        fixpoint) go through ``section()``; with nothing installed 100k
        of them must stay under the same bound as the null tracer."""
        assert not instruments().profiler.enabled
        assert not instruments().monitor.enabled
        start = time.perf_counter()
        for _ in range(100_000):
            with instruments().section("interpreter.step"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"100k no-op sections took {elapsed:.3f}s"
