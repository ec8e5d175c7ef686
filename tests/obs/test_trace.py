"""Tracer semantics: nesting, thread-locality, and no-op cost."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import (
    NullTracer,
    Span,
    Tracer,
    span_event,
    timed_span,
)
from repro.obs.context import _NULL_SPAN, installed, instruments
from repro.obs.trace import TRACE_SCHEMA


class _ListSink:
    def __init__(self):
        self.spans = []

    def emit(self, span):
        self.spans.append(span)


class TestNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
        assert child.parent is root
        assert grand.parent is child
        assert root.children == [child]
        assert child.children == [grand]
        assert root.is_root and not child.is_root
        assert all(s.closed for s in (root, child, grand))

    def test_trace_id_shared_within_tree_fresh_across_roots(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("a.1") as a1:
                pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id == a1.trace_id
        assert a.trace_id != b.trace_id
        assert a.span_id != a1.span_id != b.span_id

    def test_attrs_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", file="x.sj") as span:
            span.set_attr("mode", "sinfer")
            span.count("steps", 3)
            span.count("steps")
            span.count("hits")
        assert span.attrs == {"file": "x.sj", "mode": "sinfer"}
        assert span.counters == {"steps": 4, "hits": 1}

    def test_child_seconds_sums_by_name(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("round"):
                pass
            with tracer.span("round"):
                pass
            with tracer.span("emit"):
                pass
        totals = root.child_seconds()
        assert set(totals) == {"round", "emit"}
        assert totals["round"] >= 0.0

    def test_walk_is_preorder(self):
        tracer = Tracer()
        with tracer.span("r") as root:
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert [s.name for s in root.walk()] == ["r", "a", "a1", "b"]

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("x")
        assert span.closed

    def test_sink_sees_children_before_parents_root_last(self):
        sink = _ListSink()
        tracer = Tracer(sinks=(sink,))
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        assert [s.name for s in sink.spans] == ["grandchild", "child", "root"]
        event = span_event(sink.spans[-1])
        assert event["schema"] == TRACE_SCHEMA
        assert event["parent_id"] is None
        assert event["event"] == "span"


class TestThreadLocality:
    def test_two_threads_grow_disjoint_well_nested_trees(self):
        tracer = Tracer()
        roots: dict[str, Span] = {}
        barrier = threading.Barrier(2)

        def work(label: str) -> None:
            barrier.wait()
            with tracer.span(f"root.{label}") as root:
                for index in range(3):
                    with tracer.span("phase", index=index):
                        time.sleep(0.001)
            roots[label] = root

        threads = [
            threading.Thread(target=work, args=(label,)) for label in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        a, b = roots["a"], roots["b"]
        assert a.trace_id != b.trace_id
        assert {s.name for s in a.walk()} == {"root.a", "phase"}
        assert {s.name for s in b.walk()} == {"root.b", "phase"}
        assert len(a.children) == len(b.children) == 3
        ids_a = {s.span_id for s in a.walk()}
        ids_b = {s.span_id for s in b.walk()}
        assert not (ids_a & ids_b)
        for root in (a, b):
            for child in root.children:
                assert child.parent is root
                assert child.trace_id == root.trace_id


class TestNullTracer:
    def test_default_tracer_is_disabled(self):
        tracer = instruments().tracer
        assert isinstance(tracer, NullTracer)
        assert tracer.enabled is False

    def test_span_is_one_shared_noop(self):
        tracer = NullTracer()
        span = tracer.span("anything", attr=1)
        assert span is tracer.span("other")
        assert span is _NULL_SPAN
        with span as inner:
            inner.set_attr("x", 1)
            inner.count("y")
        assert inner.attrs == {} and inner.counters == {}

    def test_installed_tracer_restores_previous(self):
        before = instruments().tracer
        tracer = Tracer()
        with installed(tracer=tracer) as context:
            assert context.tracer is tracer
            assert instruments().tracer is tracer
        assert instruments().tracer is before

    def test_set_tracer_none_restores_default(self):
        with installed(tracer=Tracer()):
            with installed(tracer=None):
                assert isinstance(instruments().tracer, NullTracer)
            assert isinstance(instruments().tracer, Tracer)

    def test_noop_overhead_is_negligible(self):
        """Acceptance: the disabled tracer must not measurably slow hot
        paths.  100k no-op spans must stay far below any per-check cost
        (generous absolute bound to survive slow CI machines)."""
        assert isinstance(instruments().tracer, NullTracer)
        start = time.perf_counter()
        for _ in range(100_000):
            with instruments().tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"100k no-op spans took {elapsed:.3f}s"


class TestTimedSpan:
    def test_accumulates_even_without_tracer(self):
        timings: dict[str, float] = {}
        assert isinstance(instruments().tracer, NullTracer)
        with timed_span("parse", timings):
            time.sleep(0.002)
        with timed_span("parse", timings):
            pass
        assert timings["parse"] >= 0.002

    def test_opens_a_real_span_when_tracing(self):
        sink = _ListSink()
        timings: dict[str, float] = {}
        with installed(tracer=Tracer(sinks=(sink,))):
            with timed_span("phase", timings, mode="sinfer"):
                pass
        assert [s.name for s in sink.spans] == ["phase"]
        assert sink.spans[0].attrs == {"mode": "sinfer"}
        assert "phase" in timings
