"""``serve``: a ``repro serve`` daemon driven by one load-generator
process with one closed-loop client connection.

Load model: closed loop, 1 client (one thread and one ``ReproClient``
connection), seeded request mix (see :data:`corpus.BLOCK`).  The client
sends its next request only after the reply to the previous one.  A
second client was dropped: its requests made the first one's wait behind
them in the daemon's interpreter lock, so the round trips followed the
scheduling of four busy threads on two CPUs more than the program.

The daemon runs as a subprocess with a private cache directory and
socket under ``.perfbench/``; it is started before timing, waited on
``status`` and stopped with the ``shutdown`` op.
"""

from __future__ import annotations

import itertools
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from repro.apps import all_app_names, app_source
from repro.service.client import ReproClient, ServiceError

from perfbench.common import (
    ROOT,
    SRC,
    Block,
    Recorder,
    Result,
    SetupProbes,
    TraceRun,
    median_or_zero,
    peak_rss_mb,
    pin_to_one_cpu,
    put_blocks,
    quartile_line,
    window_open,
    work_dir,
)
from perfbench.corpus import BLOCK, serve_requests
from perfbench.gauge import Gauge

BLOCK_SIZE = sum(n for _, n in BLOCK)


class Daemon:
    """One ``repro serve`` subprocess with its own socket and cache."""

    def __init__(self, home: Path) -> None:
        home.mkdir(parents=True)
        # Relative to the checkout root, which is the cwd of both sides:
        # keeps the path well under the AF_UNIX length limit.
        self.socket = str((home / "d.sock").relative_to(ROOT))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = (home / "daemon.log").open("wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket, "--cache-dir", str(home / "cache")],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            # Readiness: the first answered `status`, not a sleep.
            with self.client(connect_retries=2000) as client:
                client.status()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def client(self, connect_retries: int = 0) -> ReproClient:
        return ReproClient(
            self.socket, timeout=60.0, connect_retries=connect_retries,
            connect_backoff=0.002, backoff_cap=0.01,
        ).connect()

    def stop(self) -> None:
        """Shut down through the client op; kill only if that fails."""
        try:
            if self.process.poll() is None:
                with self.client() as client:
                    client.shutdown()
                self.process.wait(timeout=30)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()


def _server_seconds(reply: dict) -> float:
    """Server-side time of one reply, from its ``timings``: the whole
    pipeline on a miss, the lookup on a hit, ``total`` for SInfer."""
    timings = reply.get("timings") or {}
    if "total" in timings:
        return timings["total"]
    return sum(timings.values())


class Sample(NamedTuple):
    """One completed request as the client saw it."""

    kind: str
    ms: float
    cached: bool
    server_ms: float
    traced: bool
    end: float


class Load:
    """The load generator: the client's request stream and the oracle."""

    def __init__(self, daemon: Daemon, seed: int, result: Result) -> None:
        self.daemon = daemon
        self.result = result
        self.stream = serve_requests(seed, 0)
        self.samples: list[Sample] = []
        self.first: dict[str, dict] = {}

    def warm(self) -> None:
        """One check of every bundled source before timing: fills the
        cache and records each source's first report for the hit oracle."""
        with self.daemon.client() as client:
            for app in all_app_names():
                self.result.attempted += 1
                try:
                    reply = client.check(source=app_source(app))
                except (OSError, ServiceError) as exc:
                    self.result.fail(f"warm-up check {app}: "
                                     f"{type(exc).__name__}: {exc}")
                    continue
                self.first[app] = reply.get("report")
                if not reply.get("self_stabilizing"):
                    self.result.fail(f"warm-up check {app}: rejected")

    def one(self, client: ReproClient, rec: Recorder) -> None:
        kind, app, source = next(self.stream)
        failure = None
        with rec.span("bench.request", "bench"):
            t0 = time.perf_counter()
            try:
                with rec.span(f"service.{kind}", "service"):
                    if kind == "infer":
                        reply = client.infer(source=source)
                    else:
                        reply = client.check(source=source)
            except (OSError, ServiceError) as exc:
                reply, failure = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        if reply is not None:
            if kind == "infer":
                if not reply.get("verified"):
                    failure = "annotations not verified"
            elif app not in self.first:
                failure = "no first report: its warm-up check failed"
            elif reply.get("report") != self.first[app]:
                failure = "report differs from the first of this source"
            elif reply.get("cached") != (kind == "hit"):
                failure = f"cached={reply.get('cached')} on a {kind}"
        self.result.attempted += 1
        if failure is not None:
            self.result.fail(f"{kind} {app}: {failure}")
        else:
            self.samples.append(Sample(
                kind, (end - t0) * 1000, bool(reply["cached"])
                if kind != "infer" else False,
                _server_seconds(reply) * 1000, rec.enabled, end))


def run(seed: int, seconds: int, trace: bool, result: Result) -> TraceRun | None:
    home = work_dir("serve")
    probed = itertools.count()

    def probe() -> float:
        """One daemon start, spawn to first ``status`` reply, then stop."""
        daemon = Daemon(home / f"probe{next(probed)}")
        daemon.stop()
        return daemon.ready_s

    if not trace:
        pin_to_one_cpu()
    try:
        with Gauge() as gauge:
            daemon = Daemon(home / "main")
            # setup_s is an end-to-end metric, so only untraced runs probe.
            probes = SetupProbes(probe, gauge)
            traced = None
            try:
                load = Load(daemon, seed, result)
                load.warm()
                if trace:
                    traced = _traced(load, seconds, result)
                else:
                    _timed(load, seconds, result, probes, gauge)
            finally:
                daemon.stop()
            if not trace:
                probes.put(result)
                # Every daemon has been reaped and the gauge process not
                # yet, so the largest reaped child is a daemon.
                result.put("peak_rss_mb",
                           peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    finally:
        shutil.rmtree(home, ignore_errors=True)
    return traced


#: Untimed seconds of load before the window.
WARM_UP_S = 1.0
#: Seconds of closed-loop load in one block; gauge bursts and daemon
#: set-ups (for ``setup_s``) run between blocks while the daemon idles.
BLOCK_SECONDS = 1.0


def _segment(load: Load, seconds: float) -> list[Sample]:
    """The client in a closed loop for ``seconds``; returns the segment's
    samples."""
    idle = Recorder(enabled=False)
    first = len(load.samples)
    deadline = time.perf_counter() + seconds
    with load.daemon.client() as client:
        while time.perf_counter() < deadline:
            load.one(client, idle)
    return load.samples[first:]


def _timed(load: Load, seconds: int, result: Result,
           probes: SetupProbes, gauge: Gauge) -> None:
    _segment(load, WARM_UP_S)
    blocks: list[Block] = []
    window: list[Sample] = []
    start = time.perf_counter()
    gauge.burst()
    while window_open(start, seconds, len(blocks)):
        # A block runs from the connection until the last reply.
        t0 = time.perf_counter()
        samples = _segment(load, BLOCK_SECONDS)
        blocks.append(Block(len(samples), time.perf_counter() - t0,
                            [s.ms for s in samples]))
        gauge.burst()
        window += samples
        probes.until((time.perf_counter() - start) / seconds)
    put_blocks(result, blocks, gauge)
    result.notes.append(
        f"requests_per_s is ops_per_s ({len(window)} requests, "
        f"closed loop, 1 client)")
    result.notes.append(quartile_line(
        "check", [s.ms for s in window if s.kind != "infer"]))
    result.notes.append(quartile_line(
        "infer", [s.ms for s in window if s.kind == "infer"]))


def _traced(load: Load, seconds: int, result: Result) -> TraceRun:
    """Untraced and traced mix blocks, alternating; the traced blocks give
    the per-layer figures."""
    rec = Recorder()
    idle = Recorder(enabled=False)
    walls = {True: 0.0, False: 0.0}
    with load.daemon.client() as client:
        for block in range(4 * seconds):
            traced = block % 2 == 1
            t0 = time.perf_counter()
            for _ in range(BLOCK_SIZE):
                load.one(client, rec if traced else idle)
            walls[traced] += time.perf_counter() - t0
    traced = [s for s in load.samples if s.traced]
    hits = [s.ms for s in traced if s.kind != "infer" and s.cached]
    misses = [s.ms for s in traced if s.kind != "infer" and not s.cached]
    infers = [s.ms for s in traced if s.kind == "infer"]
    result.put("service.hit_ms_p50", median_or_zero(hits), "ms")
    result.put("service.miss_ms_p50", median_or_zero(misses), "ms")
    result.put("service.infer_ms_p50", median_or_zero(infers), "ms")
    n = max(1, len(traced))
    result.put("service.server_ms",
               sum(s.server_ms for s in traced) / n, "ms")
    result.put("service.wait_ms",
               sum(s.ms - s.server_ms for s in traced) / n, "ms")
    result.put("service.cache_hit_ratio",
               len(hits) / max(1, len(hits) + len(misses)), "ratio")
    return TraceRun(rec, walls[True], walls[False])
