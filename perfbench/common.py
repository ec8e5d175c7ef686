"""Shared pieces of the benchmark: paths, statistics, set-up probes,
peak RSS, the span recorder and the result record.

Nothing here imports :mod:`repro`; the workloads do, after ``run.py`` has
put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for sockets, caches, manifests and traces.  It lives in
#: the checkout (the benchmark writes nowhere else) and is gitignored.
WORK = ROOT / ".perfbench"

#: The layers a span can be charged to (the package modules of
#: ``src/repro``).  ``bench`` is the benchmark's own glue, not a layer.
#: ``obs`` is not among them: it has no public call of its own on these
#: paths (tracing is off in-process, and on inside the daemon, where only
#: whole requests can be timed from outside), so its cost shows in the
#: ``service.*`` figures and the serve workload's end-to-end metrics.
LAYERS = ("lang", "core", "infer", "runtime", "dist", "service")
#: Spans of work the benchmark adds only to measure a layer (the
#: standalone lexing pass in ``analyze``): charged to no layer, but not
#: unattributed either.
MEASURE = "measure"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7

def work_dir(name: str) -> Path:
    """A fresh private directory under ``.perfbench/`` for one run; the
    caller removes it."""
    path = WORK / f"{name}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1 to 99), linearly interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_or_zero(values: list[float]) -> float:
    """The median, or 0 when no operation succeeded (the run then already
    counts its failures)."""
    return statistics.median(values) if values else 0.0


#: Operations per block in ``analyze``.
BLOCK_OPS = 60
#: The fewest blocks a timed window ends with, however short ``--seconds``.
MIN_BLOCKS = 4


def window_open(start: float, seconds: int, blocks: int,
                min_blocks: int = MIN_BLOCKS) -> bool:
    """Whether a timed window that began at ``start`` takes another block.
    It runs for ``seconds`` and at least ``min_blocks`` blocks, but never
    past ``3 * seconds + 10``: blocks count attempted operations, failed
    ones too, so a program that fails every call still ends."""
    elapsed = time.perf_counter() - start
    if elapsed > 3 * seconds + 10:
        return False
    return elapsed < seconds or blocks < min_blocks


@dataclass
class Block:
    """One block of a timed window: how many operations completed in how
    many wall seconds, and their latencies in ms.  A
    :class:`~perfbench.gauge.Gauge` burst runs just before and just after
    every block."""

    ops: int
    seconds: float
    latencies: list[float]


def put_blocks(result: "Result", blocks: list[Block], gauge) -> None:
    """``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90`` over the whole timed
    window, scaled to the gauge's reference speed (see
    :mod:`perfbench.gauge`): the operations over the busy time, and the
    percentiles of the pooled latencies."""
    timed = [b for b in blocks if b.latencies]
    if not timed:  # every operation failed, and each is counted
        result.notes.append("no operation of the timed window succeeded")
        for name, unit in (("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
                           ("op_ms_p90", "ms")):
            result.put(name, 0.0, unit)
        return
    scale = gauge.scale()
    ops = sum(b.ops for b in timed)
    busy = sum(b.seconds for b in timed)
    raw = [ms for b in timed for ms in b.latencies]
    result.put("ops_per_s", ops / busy / scale, "1/s")
    for q in (50, 90):
        result.put(f"op_ms_p{q}", percentile(raw, q) * scale, "ms")
    result.notes.append(
        f"op figures: {len(timed)} blocks, {ops} operations "
        f"({len(raw)} latencies), {busy:.3f} s; unscaled "
        f"ops_per_s {ops / busy:.4f} 1/s, op_ms_p50 "
        f"{percentile(raw, 50):.4f} ms, op_ms_p90 "
        f"{percentile(raw, 90):.4f} ms, op_ms_p95 "
        f"{percentile(raw, 95):.4f} ms")
    result.notes.append(gauge.note())


def quartile_line(name: str, sample: list[float]) -> str:
    """A human-readable ``<name>_ms_p50``/``_p95`` line over the window's
    latencies of one kind of operation, with its sample count."""
    if not sample:
        return f"{name}_ms: no successful operation"
    return (f"{name}_ms_p50 {percentile(sample, 50):.4f} ms, "
            f"{name}_ms_p95 {percentile(sample, 95):.4f} ms "
            f"(n={len(sample)})")


# ---------------------------------------------------------------------------
# Set-up time and memory
# ---------------------------------------------------------------------------


def probe_setup(workload: str) -> float:
    """Wall seconds of one fresh-process set-up of ``workload``:
    interpreter start, imports and input build (``probe.py``), timed from
    spawn to the probe's ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as probe:
        ready = probe.stdout.readline()
        seconds = time.perf_counter() - start
        probe.stdout.read()
        if probe.wait(timeout=60) != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return seconds


class SetupProbes:
    """The set-ups behind ``setup_s``, spread through a run.

    ``take()`` performs one set-up and returns its wall seconds.  The
    workloads call :meth:`until` between blocks of timed work, right
    after a gauge burst, so the set-ups fall in different spells of the
    machine's speed and never overlap the timed work.  A burst follows
    each set-up; the median is scaled like the run's other timings.
    """

    def __init__(self, take, gauge) -> None:
        self.take = take
        self.gauge = gauge
        self.times: list[float] = []

    def until(self, share: float) -> None:
        """Take set-ups until ``share`` (0 to 1) of them are done."""
        while len(self.times) < min(SETUP_PROBES,
                                    round(share * SETUP_PROBES)):
            self.times.append(self.take())
            self.gauge.burst()

    def put(self, result: "Result") -> None:
        self.until(1.0)
        median = statistics.median(self.times)
        result.put("setup_s", median * self.gauge.scale(), "s")
        result.notes.append(
            f"setup_s: median of {len(self.times)} set-ups, unscaled "
            f"{median:.4f} s ({min(self.times):.4f} to "
            f"{max(self.times):.4f} s)")


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts from now on, on
    one CPU (the highest it may use).

    For workloads that keep only one thing busy at a time: the
    in-process corpus, and the closed-loop client with its daemon, which
    take turns.  On one CPU a request hands over to the daemon without
    waking the other virtual CPU, a wake-up whose cost follows the load
    on the host rather than the program; and the gauge, started later,
    measures the very CPU the work runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MB of this process
    (``resource.RUSAGE_SELF``) or of the largest reaped child
    (``resource.RUSAGE_CHILDREN``).  Linux reports kilobytes."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Spans, recorded from outside the program
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    op_id: int
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans around the benchmark's own calls into each layer.

    An ``op`` is one root span (one corpus call, one request, one shard)
    and its id is shared by every span opened inside it.  Spans stay in
    memory until :meth:`write`.  A disabled recorder keeps the same call
    shape and records nothing, so the untraced half of a traced run
    executes identical code minus the recording.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = 0
        self._local = threading.local()

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = self._next_id()
        parent = stack[-1] if stack else None
        op_id = parent[1] if parent else span_id
        stack.append((span_id, op_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                name, layer, start, end, span_id,
                parent[0] if parent else None, op_id,
                threading.get_ident(),
            )
            with self._lock:
                self.spans.append(record)

    def self_seconds(self) -> dict[int, float]:
        """Per span id: duration minus the time its children cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] = (
                    covered.get(span.parent_id, 0.0) + span.seconds
                )
        return {s.span_id: s.seconds - covered.get(s.span_id, 0.0)
                for s in self.spans}

    def layer_self_ms(self) -> dict[str, float]:
        own = self.self_seconds()
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.layer in totals:
                totals[span.layer] += own[span.span_id] * 1000.0
        return totals

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
                out.write(json.dumps({
                    "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "span_id": s.span_id,
                    "parent_id": s.parent_id, "op_id": s.op_id,
                    "thread": s.thread,
                }) + "\n")


@dataclass
class TraceRun:
    """What a traced run hands back: its spans, and the busy time of its
    traced half and of the identical untraced half (summed over clients
    where several run side by side)."""

    recorder: Recorder
    traced_s: float
    untraced_s: float


# ---------------------------------------------------------------------------
# The result of one run
# ---------------------------------------------------------------------------


#: Failure messages a run keeps; the rest are only counted, so a program
#: that fails every call cannot fill memory with them.
KEPT_FAILURES = 100


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: The first :data:`KEPT_FAILURES` failure messages.
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON line (sample counts,
    #: the workload-specific names of the generic metrics, and so on).
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def finish_trace(result: "Result", run: TraceRun, path: Path) -> None:
    """Per-layer self times, tracing overhead and unattributed share of a
    traced run; the spans go to ``path``."""
    layers = run.recorder.layer_self_ms()
    for layer, ms in layers.items():
        result.put(f"{layer}.self_ms", ms, "ms")
    measure_ms = sum(s.seconds for s in run.recorder.spans
                     if s.layer == MEASURE) * 1000.0
    result.put("bench.tracing_overhead_ratio",
               run.traced_s / run.untraced_s - 1, "ratio")
    result.put("bench.unattributed_ratio",
               1 - (sum(layers.values()) + measure_ms)
               / (run.traced_s * 1000.0), "ratio")
    result.put("bench.failed_ratio",
               result.failed / max(1, result.attempted), "ratio")
    run.recorder.write(path)


def repeat_counts(result: Result, run: str, counts: dict[str, float],
                  code_digest: str) -> None:
    """Flag count metrics that differ from an earlier run of the same code
    with the same arguments in this checkout (``run`` names them; the
    history is kept under ``.perfbench/counts``)."""
    store = WORK / "counts" / f"{run}-{code_digest}.json"
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        for name, value in counts.items():
            if name in earlier and earlier[name] != value:
                result.fail(
                    f"count {name} changed between runs of the same code: "
                    f"{earlier[name]} then {value}"
                )
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def code_digest() -> str:
    """Content digest of the program under test (``src/**/*.py`` and the
    bundled ``.sj`` apps), so count histories never mix two versions."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".sj") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
