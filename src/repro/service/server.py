"""The checking daemon: newline-delimited JSON over a Unix socket.

``repro serve --socket PATH`` starts a long-lived process that keeps
the checker warm (parsed once per request, cached by content), so
editors and build systems pay socket-round-trip latency instead of
interpreter start-up per check.

One request per line, one response per line; a connection may issue any
number of requests.  Operations:

* ``{"op": "check",  "source": ...}`` or ``{"op": "check", "path": ...}``
  — run the self-stabilization checker (cache-aware); response embeds
  the standard ``check`` payload plus per-pass ``timings``;
* ``{"op": "infer",  "source"|"path": ..., "mode": "sinfer"|"naive"}``
  — run annotation inference; response carries the stable summary and
  the annotated source;
* ``{"op": "status"}`` — uptime-style counters: requests served per op,
  cache statistics, plus a compact ``metrics`` section;
* ``{"op": "metrics"}`` — the full :class:`~repro.obs.MetricsRegistry`
  snapshot (``{"format": "prometheus"}`` returns the text exposition
  instead);
* ``{"op": "events"}`` — the daemon's recent structured events (an
  in-memory ring of the last 512), optionally filtered by ``level``
  (severity floor), ``name`` (substring) and ``limit`` (tail);
* ``{"op": "shutdown"}`` — acknowledge, then stop the daemon.

Every response carries ``version``, ``ok``, and the server-assigned
``request_id`` (a monotonically increasing counter).

Observability: the daemon installs a :class:`~repro.obs.Tracer` (ring
buffer sink) for its lifetime, wraps every operation in an ``op.<name>``
span — handler threads each grow their own well-nested tree — and wires
cache hit/miss/eviction statistics and pool latency histograms into a
per-server metrics registry.  Requests may carry an optional ``trace``
traceparent field: the op span then records the calling client's span
as its remote parent, linking daemon work into the client's distributed
trace.  ``--http-port`` additionally serves ``/metrics``, ``/healthz``
and ``/events`` over HTTP (:mod:`repro.obs.exporter`).  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Optional

from repro.infer import infer_annotations
from repro.lang import parse_program, resolve_program, typecheck_program
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.symtab import ResolveError
from repro.lang.typecheck import JavaTypeError
from repro.obs import (
    EventBuffer,
    EventLog,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    timed_span,
)
from repro.obs.events import EventError
from repro.obs.exporter import POLL_SECONDS, maybe_exporter
from repro.obs.context import installed, instruments
from repro.obs.resources import ResourceMonitor
from repro.obs.propagate import PropagationError, TraceContext
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.pool import CheckerPool

_FRONT_END_ERRORS = (LexError, ParseError, ResolveError, JavaTypeError)

OPS = ("check", "infer", "status", "metrics", "events", "shutdown")


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: ReproServer = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            server._begin_request()
            try:
                response = server.dispatch(line)
                if instruments().chaos.drop_point(
                    "server.response", response.get("request_id", "?")
                ):
                    # Injected connection reset: the request executed but
                    # its response never ships — the client sees EOF, as
                    # with a daemon crash between dispatch and write.
                    return
                try:
                    self.wfile.write(
                        (protocol.dumps(response) + "\n").encode("utf-8")
                    )
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    # The client went away mid-response; a torn protocol
                    # line must never take the handler (or daemon) down.
                    return
            finally:
                server._end_request()
            if response.get("op") == "shutdown" and response.get("ok"):
                return


class ReproServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    """The daemon.  Construct, then call :meth:`serve_forever` (or
    :meth:`start` to run it on a background thread, as tests do)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        socket_path: str | Path,
        *,
        cache: Optional[ResultCache] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
    ) -> None:
        from repro.service.client import remove_stale_socket, socket_is_live

        self.socket_path = str(socket_path)
        Path(self.socket_path).parent.mkdir(parents=True, exist_ok=True)
        if Path(self.socket_path).exists():
            # Reclaim a socket a killed daemon left behind, but never
            # steal one a live daemon is still answering on.
            if socket_is_live(self.socket_path):
                raise OSError(
                    f"socket {self.socket_path} is in use by a running daemon"
                )
            remove_stale_socket(self.socket_path)
        super().__init__(self.socket_path, _Handler)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pool = CheckerPool(
            max_workers=1, cache=cache, metrics=self.metrics
        )
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._request_counter = 0
        self._op_counts: dict[str, int] = {op: 0 for op in OPS}
        self._shutdown_thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        # The daemon owns process-wide tracing and event logging for its
        # lifetime: library spans (checker passes, inference phases) and
        # events report through instruments(), so the server's tracer
        # and event log are installed globally and restored by close().
        # One daemon per process.  The last 512 events stay in memory
        # and ship through the `events` op; the threshold is debug — the
        # ring is the filter, not the gate.
        self.trace_buffer = RingBufferSink(capacity=128)
        self.tracer = (
            tracer if tracer is not None
            else Tracer(sinks=(self.trace_buffer,))
        )
        self.event_buffer = EventBuffer(capacity=512)
        self.event_log = EventLog(level="debug", sinks=(self.event_buffer,))
        self._installed = ExitStack()
        self._installed.enter_context(
            installed(tracer=self.tracer, event_log=self.event_log)
        )
        # Resource telemetry for /healthz and the repro_rss/gc/cache
        # gauges: RSS + GC pauses + cache occupancy only — tracemalloc
        # stays off in the daemon (allocation tracing taxes every
        # request; opt in via `repro bench --mem` instead).
        self.resources = ResourceMonitor(trace_allocations=False).start()
        daemon_cache = self.pool.cache
        if daemon_cache is not None:
            self.resources.watch_cache(
                "memory", lambda: daemon_cache.occupancy()["memory"]
            )
            if daemon_cache.disk_dir is not None:
                self.resources.watch_cache(
                    "disk",
                    lambda: daemon_cache.occupancy().get("disk", {}),
                )
        # The HTTP observability plane: /metrics byte-equal to the
        # socket `metrics` op (same prepare + render path), /healthz
        # from the drain accounting, /events from the same ring the
        # `events` op reads.  NullExporter when no port is configured.
        self.exporter = maybe_exporter(
            http_port,
            host=http_host,
            registry=self.metrics,
            prepare=self._sync_cache_metrics,
            events=lambda: self.event_buffer.records,
            health=self._health,
        )
        self.event_log.emit(
            "daemon.start", level="info", socket=self.socket_path
        )

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self, poll_interval: float = POLL_SECONDS) -> None:
        """Serve until :meth:`shutdown`, which returns within
        ``poll_interval`` seconds."""
        super().serve_forever(poll_interval)

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def _begin_request(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def inflight(self) -> int:
        """Requests currently being handled (dispatch through response
        write)."""
        with self._inflight_cv:
            return self._inflight

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until no request is mid-flight (dispatched but its
        response not yet written), so a shutdown never tears a protocol
        line.  True when drained, False on timeout."""
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True

    def close(self, *, drain_timeout: float = 5.0) -> None:
        # Handler threads are daemons: without the drain, closing here
        # could cut a response off mid-line.  Requests still in flight
        # get drain_timeout to finish writing; stragglers are reported,
        # not waited on forever.
        if not self.drain(drain_timeout):
            self.event_log.emit(
                "daemon.drain_timeout",
                level="warn",
                inflight=self.inflight(),
            )
        self._installed.close()
        self.resources.stop()
        self.exporter.close()
        self.server_close()
        Path(self.socket_path).unlink(missing_ok=True)

    def _health(self) -> dict:
        """The ``/healthz`` document body (``ok`` comes from the
        exporter): liveness facts a probe or operator wants first."""
        with self._lock:
            served = self._request_counter
        return {
            "pid": os.getpid(),
            "socket": self.socket_path,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "inflight": self.inflight(),
            "requests_served": served,
            "rss_bytes": self.resources.peak_rss(),
            "gc": self.resources.gc_snapshot(),
            "cache_occupancy": self.resources.cache_occupancy(),
        }

    # -- dispatch --------------------------------------------------------

    def dispatch(self, line: str) -> dict:
        with self._lock:
            self._request_counter += 1
            request_id = self._request_counter
        try:
            request = protocol.loads(line)
        except protocol.ProtocolError as exc:
            return self._error(request_id, "?", str(exc))
        op = request.get("op")
        if op not in OPS:
            return self._error(request_id, str(op), f"unknown op {op!r}")
        # Optional distributed-tracing context: a client running under
        # an active span stamps its traceparent, and the op span below
        # adopts the caller's trace as its remote parent.  Absent field
        # → context is None → attached() is a no-op, so old clients see
        # byte-identical behaviour.
        context: Optional[TraceContext] = None
        if "trace" in request:
            try:
                context = TraceContext.from_traceparent(request["trace"])
            except PropagationError as exc:
                return self._error(
                    request_id, op, f"bad trace context: {exc}"
                )
        with self._lock:
            self._op_counts[op] += 1
        self.metrics.counter(
            "repro_requests_total", "requests dispatched"
        ).inc()
        self.metrics.counter(
            f"repro_op_{op}_total", f"{op} requests dispatched"
        ).inc()
        try:
            handler = getattr(self, f"_op_{op}")
            with self.tracer.attached(context), self.tracer.span(
                f"op.{op}", request_id=request_id
            ) as span:
                # Inside the span, so the event joins it on
                # (trace_id, span_id) — except for `events` itself,
                # which would pollute the very ring it is reading.
                if op != "events":
                    self.event_log.emit(
                        "daemon.request", level="debug",
                        op=op, request_id=request_id,
                    )
                response = handler(request, request_id)
                span.set_attr("ok", bool(response.get("ok")))
            return response
        except _FRONT_END_ERRORS as exc:
            return self._error(request_id, op, f"front-end error: {exc}")
        except Exception as exc:  # a bug must not kill the daemon
            return self._error(request_id, op, f"internal error: {exc}")

    def _error(self, request_id: int, op: str, message: str) -> dict:
        return {
            "version": protocol.PROTOCOL_VERSION,
            "ok": False,
            "op": op,
            "request_id": request_id,
            "message": message,
        }

    def _envelope(self, request_id: int, op: str, **fields) -> dict:
        return {
            "version": protocol.PROTOCOL_VERSION,
            "ok": True,
            "op": op,
            "request_id": request_id,
            **fields,
        }

    @staticmethod
    def _request_source(request: dict) -> tuple[str, str]:
        if "source" in request:
            return str(request["source"]), str(request.get("file", "<socket>"))
        if "path" in request:
            path = str(request["path"])
            return Path(path).read_text(encoding="utf-8"), path
        raise ValueError("request needs 'source' or 'path'")

    # -- operations ------------------------------------------------------

    def _op_check(self, request: dict, request_id: int) -> dict:
        try:
            source, name = self._request_source(request)
        except (ValueError, OSError) as exc:
            return self._error(request_id, "check", str(exc))
        start = time.perf_counter()
        result = self.pool.check_source(source, file=name)
        if result.payload is not None and result.payload.get("kind") == "check":
            payload = dict(result.payload)
            if "timings" not in payload:
                # Cache hits skip the pipeline, so there are no per-pass
                # timings — report the lookup cost instead of nothing.
                payload["timings"] = {
                    "cache_lookup": time.perf_counter() - start
                }
            return self._envelope(request_id, "check", **payload)
        message = result.message or "check failed"
        return self._error(request_id, "check", message)

    def _op_infer(self, request: dict, request_id: int) -> dict:
        try:
            source, name = self._request_source(request)
        except (ValueError, OSError) as exc:
            return self._error(request_id, "infer", str(exc))
        mode = str(request.get("mode", "sinfer"))
        if mode not in ("sinfer", "naive"):
            return self._error(request_id, "infer", f"unknown mode {mode!r}")
        start = time.perf_counter()
        timings: dict[str, float] = {}
        with timed_span("parse", timings):
            program = parse_program(source)
        with timed_span("resolve", timings):
            info = resolve_program(program)
        with timed_span("typecheck", timings):
            typecheck_program(info)
        result = infer_annotations(
            info, mode=mode, verify=bool(request.get("verify", True))
        )
        # Span-derived per-phase timings: front end + the engine's
        # pipeline phases (value_flow … verify), plus the old total.
        timings.update(result.phase_seconds)
        timings["total"] = time.perf_counter() - start
        payload = protocol.infer_payload(
            result.summary_dict(), file=name, timings=timings
        )
        payload["annotated_source"] = result.annotated_source
        return self._envelope(request_id, "infer", **payload)

    def _sync_cache_metrics(self) -> None:
        """Mirror :class:`CacheStats` into the registry so one snapshot
        carries cache hit/miss/eviction counts alongside everything
        else."""
        self._sync_resource_metrics()
        cache = self.pool.cache
        if cache is None:
            return
        for name, value in cache.stats.to_dict().items():
            self.metrics.gauge(
                f"repro_cache_{name}", f"result cache {name.replace('_', ' ')}"
            ).set(value)

    def _sync_resource_metrics(self) -> None:
        """Mirror the resource monitor into the registry: process RSS,
        GC totals, and per-tier cache occupancy (documented in
        ``docs/SERVICE.md``)."""
        rss = self.resources.peak_rss()
        if rss is not None:
            self.metrics.gauge(
                "repro_rss_bytes", "peak resident set size"
            ).set(rss)
        gc_doc = self.resources.gc_snapshot()
        self.metrics.gauge(
            "repro_gc_collections_total", "garbage collections observed"
        ).set(gc_doc["collections"])
        self.metrics.gauge(
            "repro_gc_pause_seconds_total", "summed gc pause time"
        ).set(gc_doc["pause_seconds_total"])
        occupancy = self.resources.cache_occupancy()
        total_bytes = 0
        for tier, stats in occupancy.items():
            total_bytes += stats["bytes"]
            self.metrics.gauge(
                f"repro_cache_{tier}_entries", f"{tier} cache tier entries"
            ).set(stats["entries"])
            self.metrics.gauge(
                f"repro_cache_{tier}_bytes", f"{tier} cache tier bytes"
            ).set(stats["bytes"])
        if occupancy:
            self.metrics.gauge(
                "repro_cache_bytes", "result cache bytes across tiers"
            ).set(total_bytes)

    def _op_status(self, request: dict, request_id: int) -> dict:
        with self._lock:
            op_counts = dict(self._op_counts)
            served = self._request_counter
        self._sync_cache_metrics()
        snapshot = self.metrics.snapshot()
        return self._envelope(
            request_id,
            "status",
            requests_served=served,
            op_counts=op_counts,
            uptime_seconds=time.time() - self.started_at,
            pool=self.pool.stats(),
            metrics={
                "schema": snapshot["schema"],
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
            },
        )

    def _op_metrics(self, request: dict, request_id: int) -> dict:
        self._sync_cache_metrics()
        fmt = str(request.get("format", "json"))
        if fmt == "prometheus":
            return self._envelope(
                request_id,
                "metrics",
                metrics_text=self.metrics.render_prometheus(),
            )
        if fmt != "json":
            return self._error(
                request_id, "metrics", f"unknown metrics format {fmt!r}"
            )
        return self._envelope(
            request_id, "metrics", metrics=self.metrics.snapshot()
        )

    def _op_events(self, request: dict, request_id: int) -> dict:
        from repro.obs import filter_events

        limit = request.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            return self._error(
                request_id, "events", f"limit must be a non-negative int, "
                f"got {limit!r}"
            )
        try:
            selected = filter_events(
                self.event_buffer.records,
                min_level=request.get("level"),
                name=request.get("name"),
                tail=limit,
            )
        except EventError as exc:
            return self._error(request_id, "events", str(exc))
        return self._envelope(request_id, "events", events=selected)

    def _op_shutdown(self, request: dict, request_id: int) -> dict:
        # shutdown() blocks until serve_forever() returns, so it must run
        # off the handler thread; the response still goes out first
        # because the handler writes it before the loop notices.
        self._shutdown_thread = threading.Thread(
            target=self.shutdown, daemon=True
        )
        self._shutdown_thread.start()
        return self._envelope(request_id, "shutdown", stopping=True)


def serve(
    socket_path: str | Path,
    *,
    cache: Optional[ResultCache] = None,
    http_port: Optional[int] = None,
    http_host: str = "127.0.0.1",
) -> None:
    """Run a daemon until it is shut down (blocking)."""
    server = ReproServer(
        socket_path, cache=cache, http_port=http_port, http_host=http_host
    )
    try:
        server.serve_forever()
    finally:
        server.close()
