"""Memory & resource telemetry: the heap half of the perf substrate.

Spans, profiles, and the bench trajectory measure *time*; this module
measures what the process *holds* while it runs:

* **peak RSS** via :func:`resource.getrusage` (normalized to bytes —
  Linux reports kilobytes, macOS bytes);
* **allocation snapshots** via :mod:`tracemalloc`, attributed to the
  same section vocabulary the profiler anchors use
  (``interpreter.step``, ``checker.check``, ``infer.fixpoint``,
  ``campaign.shard``), plus per-repetition traced peaks for the bench
  harness's additive ``memory`` section;
* **GC pauses** via :data:`gc.callbacks` — collection counts and
  summed stop-the-world durations, per generation;
* **cache occupancy** — entries/bytes per tier, pulled from registered
  suppliers (the service's :class:`~repro.service.cache.ResultCache`
  exposes ``occupancy()``).

Like tracing, events, and profiling, resource monitoring is strictly
opt-in: the default ``monitor`` of :mod:`repro.obs.context` is a
:class:`NullResourceMonitor` whose ``section()`` hands back one shared
no-op context manager — the anchors sit inside the runtime's hot loops.

Payloads are schema-versioned ``MEM_*.json`` documents
(:func:`resources_payload`, validated and written through
:data:`RESOURCES_SPEC`), written by ``repro bench --mem-json FILE`` and
documented in ``docs/BENCHMARKS.md``.  The
clock and the RSS/allocation suppliers are injectable, so tests produce
byte-deterministic golden payloads.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.bench import FINGERPRINT, document
# NullResourceMonitor is re-exported: it is this plane's off state.
from repro.obs.context import NullResourceMonitor
from repro.obs.schema import (
    INT,
    NONNEG_INT,
    NONNEG_NUMBER,
    STR,
    ListOf,
    MapOf,
    Maybe,
    Obj,
    Spec,
    const,
    schema_version,
)

#: Bump when the MEM_*.json payload layout changes.
RESOURCES_SCHEMA = 1


class ResourceError(ValueError):
    """A resources payload violated the documented schema."""


def peak_rss_bytes() -> Optional[int]:
    """This process's lifetime peak resident set size in bytes, or
    ``None`` where :mod:`resource` is unavailable.  ``ru_maxrss`` is
    kilobytes on Linux and bytes on macOS — normalized here so payloads
    compare across platforms."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    scale = 1 if sys.platform == "darwin" else 1024
    return int(usage.ru_maxrss) * scale


def _tracemalloc_read() -> tuple[int, int]:
    import tracemalloc

    return tracemalloc.get_traced_memory()


def _tracemalloc_reset() -> None:
    import tracemalloc

    tracemalloc.reset_peak()


class ResourceMonitor:
    """Samples process memory, GC pauses, and section-attributed
    allocations between :meth:`start` and :meth:`stop`.

    ``clock`` stamps GC pauses and the run duration; ``rss_supplier``
    reads peak RSS; ``alloc_read`` returns a ``(current, peak)`` traced
    byte pair (default :func:`tracemalloc.get_traced_memory`) and
    ``alloc_reset`` resets the traced peak — all injectable, so tests
    drive byte-deterministic payloads without touching the real
    allocator.  With ``trace_allocations=False`` tracemalloc is never
    started (the daemon's mode: RSS + GC + caches only) and every
    allocation field reads ``None``.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        rss_supplier: Callable[[], Optional[int]] = peak_rss_bytes,
        trace_allocations: bool = True,
        track_gc: bool = True,
        alloc_read: Optional[Callable[[], tuple[int, int]]] = None,
        alloc_reset: Optional[Callable[[], None]] = None,
    ) -> None:
        self.clock = clock
        self.rss_supplier = rss_supplier
        self.trace_allocations = trace_allocations
        self.track_gc = track_gc
        self._alloc_read = alloc_read
        self._alloc_reset = alloc_reset
        self._owns_alloc = trace_allocations and alloc_read is None
        self._lock = threading.Lock()
        self._sections: dict[str, list] = {}  # name -> [count, net_bytes]
        self._caches: dict[str, Callable[[], dict]] = {}
        self._gc_started: dict[int, float] = {}
        self._gc_collections = 0
        self._gc_by_generation: dict[int, int] = {}
        self._gc_pause_total = 0.0
        self._gc_registered = False
        self._tracemalloc_started = False
        self._final_alloc: tuple[Optional[int], Optional[int]] = (None, None)
        self._sample_base: Optional[int] = None
        self._started_at: Optional[float] = None
        self._duration = 0.0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ResourceMonitor":
        """Begin monitoring: starts tracemalloc when this monitor traces
        allocations (and nothing else already did) and registers the GC
        callback.  Idempotent."""
        if self._started_at is None:
            self._started_at = self.clock()
        if self._owns_alloc and self._alloc_read is None:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started = True
            self._alloc_read = _tracemalloc_read
            self._alloc_reset = _tracemalloc_reset
        if self.track_gc and not self._gc_registered:
            gc.callbacks.append(self._on_gc)
            self._gc_registered = True
        return self

    def stop(self) -> None:
        """Stop monitoring and freeze the run duration; unregisters the
        GC callback and stops tracemalloc if this monitor started it."""
        if self._started_at is not None:
            self._duration += self.clock() - self._started_at
            self._started_at = None
        if self._gc_registered:
            try:
                gc.callbacks.remove(self._on_gc)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._gc_registered = False
        if self._tracemalloc_started:
            import tracemalloc

            if self._alloc_read is not None:
                # Freeze the last reading so payloads rendered after
                # stop() still carry the run's allocation figures.
                current, peak = self._alloc_read()
                self._final_alloc = (int(current), int(peak))
            tracemalloc.stop()
            self._tracemalloc_started = False
            self._alloc_read = None
            self._alloc_reset = None

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- GC pause tracking -----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        """The :data:`gc.callbacks` hook: "start" stamps the clock for
        the collecting generation, "stop" folds the pause in."""
        generation = int(info.get("generation", 0))
        if phase == "start":
            self._gc_started[generation] = self.clock()
            return
        started = self._gc_started.pop(generation, None)
        with self._lock:
            self._gc_collections += 1
            self._gc_by_generation[generation] = (
                self._gc_by_generation.get(generation, 0) + 1
            )
            if started is not None:
                self._gc_pause_total += self.clock() - started

    def gc_snapshot(self) -> dict:
        """Cumulative GC totals so far — callers diff two snapshots to
        charge collections/pauses to one scenario or request window."""
        with self._lock:
            return {
                "collections": self._gc_collections,
                "pause_seconds_total": self._gc_pause_total,
                "collections_by_generation": {
                    str(gen): count
                    for gen, count in sorted(self._gc_by_generation.items())
                },
            }

    # -- section attribution ---------------------------------------------

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Attribute the net traced allocation delta of the block to
        ``name`` (the profiler's section vocabulary); without an
        allocation supplier the invocation is still counted."""
        before = self._alloc_read() if self._alloc_read is not None else None
        try:
            yield
        finally:
            net = 0
            if before is not None and self._alloc_read is not None:
                net = self._alloc_read()[0] - before[0]
            with self._lock:
                row = self._sections.setdefault(name, [0, 0])
                row[0] += 1
                row[1] += net

    def sections(self) -> list[dict]:
        """Per-section attribution rows, sorted by name."""
        with self._lock:
            return [
                {
                    "name": name,
                    "count": row[0],
                    "net_alloc_bytes": row[1],
                }
                for name, row in sorted(self._sections.items())
            ]

    # -- per-repetition sampling (the bench harness) ---------------------

    def begin_sample(self) -> None:
        """Reset the traced peak and remember the current baseline; one
        :meth:`end_sample` later yields that window's peak allocation."""
        if self._alloc_read is None:
            self._sample_base = None
            return
        if self._alloc_reset is not None:
            self._alloc_reset()
        self._sample_base = self._alloc_read()[0]

    def end_sample(self) -> Optional[int]:
        """Peak traced bytes allocated above the :meth:`begin_sample`
        baseline, or ``None`` when allocation tracing is off."""
        if self._alloc_read is None or self._sample_base is None:
            return None
        current, peak = self._alloc_read()
        return max(0, int(peak) - int(self._sample_base))

    # -- process-wide reads ----------------------------------------------

    def peak_rss(self) -> Optional[int]:
        value = self.rss_supplier()
        return None if value is None else int(value)

    def alloc_snapshot(self) -> tuple[Optional[int], Optional[int]]:
        """``(current, peak)`` traced bytes; after :meth:`stop`, the
        frozen final reading; ``(None, None)`` when tracing is off."""
        if self._alloc_read is None:
            return self._final_alloc
        current, peak = self._alloc_read()
        return (int(current), int(peak))

    # -- cache occupancy -------------------------------------------------

    def watch_cache(
        self, name: str, supplier: Callable[[], dict]
    ) -> None:
        """Register an occupancy supplier (``() -> {"entries": int,
        "bytes": int}``) reported under ``name`` in the payload."""
        with self._lock:
            self._caches[name] = supplier

    def cache_occupancy(self) -> dict:
        """Entries/bytes per registered cache tier; a supplier that
        raises is reported as zero occupancy — telemetry must never
        break the workload it watches."""
        with self._lock:
            suppliers = dict(self._caches)
        occupancy: dict[str, dict] = {}
        for name in sorted(suppliers):
            try:
                tier = suppliers[name]()
            except Exception:
                tier = {}
            occupancy[name] = {
                "entries": int(tier.get("entries", 0)),
                "bytes": int(tier.get("bytes", 0)),
            }
        return occupancy

    # -- payload ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The monitor's current readings as plain data (no schema
        envelope) — what ``/healthz`` and the Prometheus gauges read."""
        duration = self._duration
        if self._started_at is not None:  # still running
            duration += self.clock() - self._started_at
        current, peak = self.alloc_snapshot()
        return {
            "duration_seconds": duration,
            "peak_rss_bytes": self.peak_rss(),
            "alloc_current_bytes": current,
            "alloc_peak_bytes": peak,
            "gc": self.gc_snapshot(),
            "sections": self.sections(),
            "caches": self.cache_occupancy(),
        }

    def payload(
        self,
        *,
        fingerprint: Optional[dict] = None,
        created_utc: Optional[str] = None,
    ) -> dict:
        return resources_payload(
            self.snapshot(),
            fingerprint=fingerprint,
            created_utc=created_utc,
        )


# ---------------------------------------------------------------------------
# Payload schema
# ---------------------------------------------------------------------------


def resources_payload(
    snapshot: dict,
    *,
    fingerprint: Optional[dict] = None,
    created_utc: Optional[str] = None,
) -> dict:
    """The schema-versioned JSON form of one monitoring run (see
    :func:`repro.obs.bench.document` for the pinnable header)."""
    return document(
        RESOURCES_SCHEMA, "resources", fingerprint=fingerprint,
        created_utc=created_utc,
        duration_seconds=float(snapshot.get("duration_seconds", 0.0)),
        peak_rss_bytes=snapshot.get("peak_rss_bytes"),
        alloc_current_bytes=snapshot.get("alloc_current_bytes"),
        alloc_peak_bytes=snapshot.get("alloc_peak_bytes"),
        gc=snapshot.get("gc", NullResourceMonitor().gc_snapshot()),
        sections=list(snapshot.get("sections", [])),
        caches=dict(snapshot.get("caches", {})),
    )


#: The MEM_*.json document (the schema in ``docs/BENCHMARKS.md``).
RESOURCES_SPEC = Spec("resources payload", ResourceError, {
    "schema": schema_version("resources", RESOURCES_SCHEMA),
    "kind": const("resources", "unknown resources kind {value!r}"),
    "created_utc": STR,
    "fingerprint": FINGERPRINT,
    "duration_seconds": NONNEG_NUMBER,
    "peak_rss_bytes": Maybe(NONNEG_INT),
    "alloc_current_bytes": Maybe(NONNEG_INT),
    "alloc_peak_bytes": Maybe(NONNEG_INT),
    "gc": Obj({
        "collections": NONNEG_INT,
        "pause_seconds_total": NONNEG_NUMBER,
        "collections_by_generation": MapOf(INT),
    }),
    "sections": ListOf(Obj({
        "name": STR,
        "count": NONNEG_INT,
        "net_alloc_bytes": INT,
    }), key="name"),
    "caches": MapOf(Obj({
        "entries": NONNEG_INT,
        "bytes": NONNEG_INT,
    }), label="cache"),
}, file_prefix="MEM")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _mib(value: Optional[int]) -> str:
    return "       -" if value is None else f"{value / 1048576.0:8.1f}"


def format_resources_table(payload: dict) -> str:
    """Human rendering of one resources payload, deterministic layout."""
    gc_doc = payload["gc"]
    lines = [
        f"// peak rss {_mib(payload['peak_rss_bytes']).strip()} MiB, "
        f"alloc peak {_mib(payload['alloc_peak_bytes']).strip()} MiB, "
        f"{gc_doc['collections']} gc collection(s) "
        f"({gc_doc['pause_seconds_total'] * 1000.0:.2f} ms paused) "
        f"over {payload['duration_seconds']:.3f}s"
    ]
    sections = payload["sections"]
    if sections:
        width = max([len("section")] + [len(s["name"]) for s in sections])
        lines.append(
            f"{'section':<{width}} {'count':>8} {'net alloc MiB':>13}"
        )
        for row in sections:
            lines.append(
                f"{row['name']:<{width}} {row['count']:8d} "
                f"{row['net_alloc_bytes'] / 1048576.0:13.3f}"
            )
    caches = payload["caches"]
    if caches:
        width = max([len("cache")] + [len(name) for name in caches])
        lines.append(f"{'cache':<{width}} {'entries':>8} {'bytes':>12}")
        for name in sorted(caches):
            tier = caches[name]
            lines.append(
                f"{name:<{width}} {tier['entries']:8d} {tier['bytes']:12d}"
            )
    return "\n".join(lines)
