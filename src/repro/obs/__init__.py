"""repro.obs — dependency-free observability for the checking stack.

Two foundations hold it together (see ``docs/OBSERVABILITY.md``):

* **one installed context** (:mod:`repro.obs.context`) — the
  process-wide :class:`Instruments` value whose five fields (``tracer``,
  ``event_log``, ``profiler``, ``monitor``, ``chaos``) default to no-op
  null objects.  Instrumented code reads ``instruments().tracer`` and
  friends, ``with installed(tracer=...)`` swaps fields in and restores
  them on exit, and ``instruments().section(name)`` labels a hot anchor
  for the profiler and the resource monitor at once;
* **one payload validator** (:mod:`repro.obs.schema`) — every
  schema-versioned document is a declarative :class:`Spec` with one
  ``validate`` / ``read`` / ``dumps`` / ``write`` / ``read_lines``
  path: :data:`BENCH_SPEC`, :data:`PROFILE_SPEC`,
  :data:`RESOURCES_SPEC`, :data:`EVENT_SPEC`, :data:`SPAN_SPEC`, and
  the protocol envelopes in :mod:`repro.service.protocol`.

On them sit the planes — spans (:mod:`~repro.obs.trace`,
:mod:`~repro.obs.sinks`, :mod:`~repro.obs.propagate`), metrics
(:mod:`~repro.obs.metrics`, :mod:`~repro.obs.exporter`), events
(:mod:`~repro.obs.events`), the sampling profiler
(:mod:`~repro.obs.profile`) and memory telemetry
(:mod:`~repro.obs.resources`) — and the tools that read them: the bench
harness and regression gate (:mod:`~repro.obs.bench`), the bench history
(:mod:`~repro.obs.history`) and the HTML report
(:mod:`~repro.obs.report`).  The CLI surfaces all of it: ``--trace``,
``--events``, ``--profile``, ``--profile-json``, ``repro metrics``,
``repro events``, ``repro report`` and ``repro bench``.
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
    BENCH_SPEC,
    BenchError,
    Scenario,
    attribute_benchmarks,
    bench_payload,
    compare_benchmarks,
    environment_fingerprint,
    format_attribution,
    register_scenario,
    run_scenario,
    run_scenarios,
    scenario_names,
    scenario_result_from_samples,
)
from repro.obs.history import (
    HistoryWarning,
    bench_trend,
    detect_changepoints,
    env_key,
    format_trend_table,
    load_history,
    trend_series,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    PROFILE_SPEC,
    NullProfiler,
    ProfileError,
    SamplingProfiler,
    aggregate_profile,
    format_profile_table,
    profile_payload,
    section_counts,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    EVENT_SPEC,
    LEVELS,
    EventBuffer,
    EventError,
    EventLog,
    JsonlEventWriter,
    LoggingBridge,
    NullEventLog,
    filter_events,
    follow_events,
    format_event,
)
from repro.obs.exporter import (
    MetricsExporter,
    NullExporter,
    maybe_exporter,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA,
    SNAPSHOT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    render_report,
    write_report,
)
from repro.obs.resources import (
    RESOURCES_SCHEMA,
    RESOURCES_SPEC,
    NullResourceMonitor,
    ResourceError,
    ResourceMonitor,
    format_resources_table,
    peak_rss_bytes,
    resources_payload,
)
from repro.obs.propagate import (
    PropagationError,
    TraceContext,
    current_context,
    merge_traces,
    shard_trace_payload,
    worker_traced,
)
from repro.obs.context import Instruments, installed, instruments
from repro.obs.schema import Spec, TraceWarning
from repro.obs.sinks import (
    SPAN_SPEC,
    JsonlTraceWriter,
    JsonlWriter,
    RingBufferSink,
    TraceError,
    aggregate_trace,
    build_forest,
    format_aggregate_table,
    format_forest,
    format_tree,
    orphan_events,
    trace_root_seconds,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    NullTracer,
    Span,
    Tracer,
    span_event,
    timed_span,
)

__all__ = [
    "Instruments",
    "installed",
    "instruments",
    "Spec",
    "BENCH_SPEC",
    "EVENT_SPEC",
    "PROFILE_SPEC",
    "RESOURCES_SPEC",
    "SPAN_SPEC",
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "BENCH_SCHEMA",
    "EVENTS_SCHEMA",
    "REPORT_SCHEMA",
    "render_report",
    "write_report",
    "LEVELS",
    "EventBuffer",
    "EventError",
    "EventLog",
    "JsonlEventWriter",
    "LoggingBridge",
    "NullEventLog",
    "filter_events",
    "follow_events",
    "format_event",
    "MetricsExporter",
    "NullExporter",
    "maybe_exporter",
    "PropagationError",
    "TraceContext",
    "current_context",
    "merge_traces",
    "shard_trace_payload",
    "worker_traced",
    "JsonlWriter",
    "TraceWarning",
    "DEFAULT_TIME_BUCKETS",
    "SNAPSHOT_QUANTILES",
    "BenchError",
    "Scenario",
    "attribute_benchmarks",
    "format_attribution",
    "HistoryWarning",
    "bench_trend",
    "detect_changepoints",
    "env_key",
    "format_trend_table",
    "load_history",
    "trend_series",
    "PROFILE_SCHEMA",
    "NullProfiler",
    "ProfileError",
    "SamplingProfiler",
    "aggregate_profile",
    "format_profile_table",
    "profile_payload",
    "section_counts",
    "RESOURCES_SCHEMA",
    "NullResourceMonitor",
    "ResourceError",
    "ResourceMonitor",
    "format_resources_table",
    "peak_rss_bytes",
    "resources_payload",
    "bench_payload",
    "compare_benchmarks",
    "environment_fingerprint",
    "register_scenario",
    "run_scenario",
    "run_scenarios",
    "scenario_names",
    "scenario_result_from_samples",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "JsonlTraceWriter",
    "RingBufferSink",
    "TraceError",
    "aggregate_trace",
    "build_forest",
    "format_aggregate_table",
    "trace_root_seconds",
    "format_forest",
    "format_tree",
    "orphan_events",
    "NullTracer",
    "Span",
    "Tracer",
    "span_event",
    "timed_span",
]
