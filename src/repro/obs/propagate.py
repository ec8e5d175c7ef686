"""Trace-context propagation across process boundaries.

A campaign driver, its pool workers, and the checking daemon are
separate processes with separate tracers; without propagation every
worker-side span tree starts a fresh trace and the causal story of a
campaign — *this* trial ran because *that* shard was driven by *that*
campaign — is lost at each ``fork``/socket boundary.  This module
carries the missing edge:

* :class:`TraceContext` is ``(trace_id, parent span_id)`` serialized as
  a W3C-traceparent-style string ``"00-<trace_id>-<span_id>-01"`` —
  the same four-field ``version-trace-parent-flags`` framing, carrying
  our ``t<N>``/integer ids instead of hex ones;
* :func:`current_context` snapshots the active span as a context (and
  returns ``None`` in one cheap call when tracing is off — the no-op
  path is pinned by a micro-benchmark);
* :func:`shard_trace_payload` / :func:`worker_traced` are the two ends
  of the campaign's pickle boundary: the driver stamps each shard
  payload with a directory plus its traceparent, the worker installs a
  process-wide tracer writing ``worker-<pid>.trace.jsonl`` under that
  directory and opens its ``worker.shard`` root *attached* to the
  driver's context;
* :func:`merge_traces` stitches the per-worker files back into the
  driver's trace: worker span ids are renumbered above the driver's
  (each worker numbers from 1), ``remote_parent`` edges keep their
  driver-side ids, every worker event gains a ``pid`` provenance key,
  and worker events are written *before* driver events so the merged
  file preserves the children-close-before-parents invariant
  :func:`repro.obs.sinks.aggregate_trace` relies on.

The daemon protocol reuses the same context: clients stamp requests
with ``"trace": <traceparent>`` (:class:`repro.service.client.ReproClient`
does it automatically when a span is active) and the daemon opens its
``op.<name>`` span under :meth:`~repro.obs.trace.Tracer.attached`.

See ``docs/OBSERVABILITY.md`` ("Distributed tracing") for the wire
format and the orphan policy.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.obs.context import installed, instruments
from repro.obs.sinks import SPAN_SPEC, JsonlTraceWriter
from repro.obs.trace import Span, Tracer

from contextlib import contextmanager

#: The traceparent framing we speak: ``VERSION-trace_id-span_id-FLAGS``.
TRACEPARENT_VERSION = "00"
TRACEPARENT_FLAGS = "01"

#: Worker trace files written under a campaign's ``<trace>.workers/``
#: directory match this pattern; :func:`merge_traces` globs it.
WORKER_TRACE_GLOB = "worker-*.trace.jsonl"


class PropagationError(ValueError):
    """A traceparent string (or a worker trace layout) is malformed."""


@dataclass(frozen=True)
class TraceContext:
    """One cross-process parent edge: *trace* ``trace_id``, *parent
    span* ``span_id``."""

    trace_id: str
    span_id: int

    def to_traceparent(self) -> str:
        """The wire form, e.g. ``"00-t1-7-01"``."""
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}"
            f"-{TRACEPARENT_FLAGS}"
        )

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        """Parse the wire form; raises :class:`PropagationError` on any
        deviation (wrong field count, unknown version, non-int span)."""
        if not isinstance(header, str):
            raise PropagationError(
                f"traceparent must be a string, got {type(header).__name__}"
            )
        parts = header.split("-")
        if len(parts) != 4:
            raise PropagationError(
                f"traceparent {header!r} must have 4 '-'-separated fields "
                f"(version-trace_id-span_id-flags)"
            )
        version, trace_id, span_id, flags = parts
        if version != TRACEPARENT_VERSION:
            raise PropagationError(
                f"unsupported traceparent version {version!r} "
                f"(speaking {TRACEPARENT_VERSION})"
            )
        if flags != TRACEPARENT_FLAGS:
            raise PropagationError(
                f"unsupported traceparent flags {flags!r} "
                f"(speaking {TRACEPARENT_FLAGS})"
            )
        if not trace_id:
            raise PropagationError("traceparent trace_id must be non-empty")
        try:
            parsed_span = int(span_id)
        except ValueError:
            raise PropagationError(
                f"traceparent span_id {span_id!r} must be an int"
            ) from None
        return cls(trace_id=trace_id, span_id=parsed_span)


def current_context() -> Optional[TraceContext]:
    """The active span as a :class:`TraceContext`, or ``None`` when no
    span is open (always ``None`` under the :class:`NullTracer` — one
    method call, no allocation)."""
    span = instruments().tracer.current()
    if span is None:
        return None
    return TraceContext(trace_id=span.trace_id, span_id=span.span_id)


# ---------------------------------------------------------------------------
# The campaign's pickle boundary
# ---------------------------------------------------------------------------


def shard_trace_payload(trace_dir: str | Path | None) -> Optional[dict]:
    """The driver half: the ``trace`` field stamped onto each shard
    payload, or ``None`` when no trace directory is configured or no
    span is active (tracing off)."""
    if trace_dir is None:
        return None
    context = current_context()
    if context is None:
        return None
    return {
        "dir": str(trace_dir),
        "traceparent": context.to_traceparent(),
    }


#: One tracer + writer per (trace dir, pid): a pool worker process runs
#: many shards, and sharing the tracer keeps its span ids unique within
#: its ``worker-<pid>.trace.jsonl`` file.
_worker_state: dict[tuple[str, int], tuple[Tracer, JsonlTraceWriter]] = {}
_worker_lock = threading.Lock()


def _worker_tracer(trace_dir: str) -> Tracer:
    key = (trace_dir, os.getpid())
    with _worker_lock:
        state = _worker_state.get(key)
        if state is None:
            writer = JsonlTraceWriter(
                Path(trace_dir) / f"worker-{key[1]}.trace.jsonl"
            )
            state = (Tracer(sinks=(writer,)), writer)
            _worker_state[key] = state
        return state[0]


def reset_worker_tracers() -> None:
    """Close and forget cached worker tracers (tests; never needed in a
    real worker — process exit is the cleanup)."""
    with _worker_lock:
        for _, writer in _worker_state.values():
            writer.close()
        _worker_state.clear()


@contextmanager
def worker_traced(trace: Optional[dict], **attrs) -> Iterator[Optional[Span]]:
    """The worker half: run a shard under the driver's trace context.

    ``trace`` is the payload :func:`shard_trace_payload` stamped (or
    ``None``, in which case this is a no-op and the installed tracer —
    normally the null tracer — is untouched).  Installs the process-wide
    worker tracer, attaches the driver's context, and opens a
    ``worker.shard`` root span carrying the worker ``pid`` plus
    ``attrs``; every library span opened inside (injection trials,
    checker passes) nests under it, so the whole worker-side tree hangs
    off the driver's span after :func:`merge_traces`.
    """
    if not trace:
        yield None
        return
    context = TraceContext.from_traceparent(trace["traceparent"])
    tracer = _worker_tracer(str(trace["dir"]))
    with installed(tracer=tracer):
        with tracer.attached(context):
            with tracer.span(
                "worker.shard", pid=os.getpid(), **attrs
            ) as span:
                yield span


# ---------------------------------------------------------------------------
# Merging per-worker files into the driver's trace
# ---------------------------------------------------------------------------


def _worker_pid(path: Path) -> int:
    name = path.name
    try:
        return int(name.split("-", 1)[1].split(".", 1)[0])
    except (IndexError, ValueError):
        raise PropagationError(
            f"worker trace file {path} does not match "
            f"'{WORKER_TRACE_GLOB}' — cannot recover its pid"
        ) from None


def merge_traces(
    driver_path: str | Path,
    worker_dir: str | Path,
    *,
    output: str | Path | None = None,
    driver_pid: Optional[int] = None,
) -> list[dict]:
    """Stitch per-worker trace files into the driver's trace.

    Returns the merged event list (and atomically writes it to
    ``output`` when given — ``output`` may equal ``driver_path`` to
    merge in place).  Merge semantics:

    * worker files under ``worker_dir`` are taken in sorted name order,
      so two merges of the same campaign are byte-identical;
    * each worker's span ids are renumbered into a block above the
      driver's highest id (workers number from 1 independently);
      ``remote_parent``-marked events keep their ``parent_id`` verbatim
      — it already names a *driver* span;
    * a worker event whose parent id never closed in its file (worker
      killed mid-write) keeps a dangling — renumbered, collision-free —
      parent: :data:`repro.obs.sinks.SPAN_SPEC` counts it as an
      orphan and :func:`repro.obs.sinks.build_forest` renders it under
      a synthetic per-process root, never dropping it;
    * every worker event gains ``"pid"``, parsed from its file name
      (``driver_pid``, when given, is stamped onto driver events the
      same way);
    * worker events precede driver events in the output.  The only
      cross-file parent edges point worker → driver, and each file is
      already children-first, so the merged stream still closes every
      child before its parent — the invariant the self-time accounting
      of :func:`repro.obs.sinks.aggregate_trace` needs.
    """
    driver_events = SPAN_SPEC.read_lines(driver_path)
    highest = max(
        (event["span_id"] for event in driver_events), default=0
    )
    worker_paths = sorted(Path(worker_dir).glob(WORKER_TRACE_GLOB))
    merged: list[dict] = []
    next_id = highest + 1
    for path in worker_paths:
        pid = _worker_pid(path)
        mapping: dict[int, int] = {}

        def renumber(old: int) -> int:
            nonlocal next_id
            mapped = mapping.get(old)
            if mapped is None:
                mapped = mapping[old] = next_id
                next_id += 1
            return mapped

        for event in SPAN_SPEC.read_lines(path):
            event = dict(event)
            event["span_id"] = renumber(event["span_id"])
            if event["parent_id"] is not None and not event.get(
                "remote_parent"
            ):
                event["parent_id"] = renumber(event["parent_id"])
            event["pid"] = pid
            merged.append(event)
    if driver_pid is not None:
        driver_events = [
            {**event, "pid": driver_pid} for event in driver_events
        ]
    merged.extend(driver_events)
    if output is not None:
        _write_atomically(Path(output), merged)
    return merged


def _write_atomically(path: Path, events: list[dict]) -> None:
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
