"""``analyze``: the known-answer corpus checked cold and in-process, and
SInfer on every stripped bundled app, pass after pass in seeded order.

Untraced, every operation is one public call timed from call to verdict
(``check_program``; ``infer_annotations`` after the front end).  Traced,
the same operations are split into their layer calls, each in a span.
"""

from __future__ import annotations

import dataclasses
import resource
import time

from repro import (
    SJavaChecker,
    check_program,
    infer_annotations,
    parse_program,
    resolve_program,
    typecheck_program,
)
from repro.lang import ast, tokenize

from perfbench.common import (
    MEASURE,
    BLOCK_OPS,
    Block,
    Recorder,
    Result,
    SetupProbes,
    TraceRun,
    median_or_zero,
    peak_rss_mb,
    pin_to_one_cpu,
    probe_setup,
    put_blocks,
    quartile_line,
    window_open,
)
from perfbench.corpus import analyze_passes, failing_checks, known_answers
from perfbench.gauge import Gauge


class Oracle:
    """Judges every verdict against the corpus's known answers, and every
    repeated check against the first report of the same source."""

    def __init__(self, result: Result, answers=None) -> None:
        self.result = result
        self.expect = {k.name: k.expect for k in (answers or known_answers())}
        self.first: dict[str, dict] = {}

    def check(self, name: str, report) -> None:
        got = failing_checks(report)
        if got != self.expect[name]:
            self.result.fail(
                f"check {name}: failing checks {sorted(got)}, "
                f"expected {sorted(self.expect[name])}"
            )
        payload = report.to_dict()
        if self.first.setdefault(name, payload) != payload:
            self.result.fail(f"check {name}: report differs from the first")

    def infer(self, name: str, verified: bool) -> None:
        if not verified:
            self.result.fail(f"infer {name}: annotations not verified")


#: Untimed seconds before the window: the machine's clock ramps up and
#: lazy state settles.
WARM_UP_S = 1.0


def _front_end(source: str):
    info = resolve_program(parse_program(source))
    typecheck_program(info)
    return info


def run(seed: int, seconds: int, trace: bool, result: Result,
        answers=None) -> TraceRun | None:
    """One run; ``answers`` replaces the corpus's known answers (the
    self-tests plant a wrong one)."""
    if trace:
        return _traced(seed, seconds, result, answers)
    pin_to_one_cpu()
    with Gauge() as gauge:
        _timed(seed, seconds, result, answers, gauge)


def _timed(seed: int, seconds: int, result: Result, answers,
           gauge: Gauge) -> None:
    probes = SetupProbes(lambda: probe_setup("analyze"), gauge)
    oracle = Oracle(result, answers)
    passes = analyze_passes(seed)
    warm_until = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < warm_until:
        _timed_pass(next(passes), oracle, {"check": [], "infer": []})
    blocks: list[Block] = []
    by_op: dict[str, list[float]] = {"check": [], "infer": []}
    start = time.perf_counter()
    gauge.burst()
    while window_open(start, seconds, len(blocks)):
        # Whole passes only, so every block weighs each corpus program
        # equally; gauge bursts and set-ups run between blocks, outside
        # their timing.
        times: dict[str, list[float]] = {"check": [], "infer": []}
        first = result.attempted
        t0 = time.perf_counter()
        while result.attempted - first < BLOCK_OPS:
            _timed_pass(next(passes), oracle, times)
        latencies = times["check"] + times["infer"]
        blocks.append(Block(len(latencies), time.perf_counter() - t0,
                            latencies))
        gauge.burst()
        for op, sample in times.items():
            by_op[op] += sample
        probes.until((time.perf_counter() - start) / seconds)

    probes.put(result)
    result.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    put_blocks(result, blocks, gauge)
    for op, sample in by_op.items():
        result.notes.append(quartile_line(op, sample))


def _timed_pass(order, oracle: Oracle, times: dict[str, list[float]]) -> None:
    """One corpus pass, each operation timed from call to verdict (ms);
    the oracle judges each verdict outside the timing."""
    result = oracle.result
    for op, name, source in order:
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            if op == "check":
                outcome = check_program(source)
            else:
                outcome = infer_annotations(_front_end(source))
        except Exception as exc:  # a crash is a failed operation
            result.fail(f"{op} {name}: {type(exc).__name__}: {exc}")
            continue
        times[op].append((time.perf_counter() - t0) * 1000)
        if op == "check":
            oracle.check(name, outcome)
        else:
            oracle.infer(name, outcome.verified)


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def count_nodes(node) -> int:
    """AST nodes reachable from ``node``."""
    if isinstance(node, list):
        return sum(count_nodes(n) for n in node)
    if not isinstance(node, ast.Node):
        return 0
    return 1 + sum(count_nodes(getattr(node, f.name))
                   for f in dataclasses.fields(node))


def _lang(rec: Recorder, source: str, counts: dict, nodes: dict):
    # parse_program lexes again, so this standalone pass is work the
    # benchmark adds: it gives lang.tokenize_ms and lang.tokens but is
    # charged to no layer (see common.MEASURE).
    with rec.span("lang.tokenize", MEASURE):
        tokens = tokenize(source)
    with rec.span("lang.parse", "lang"):
        program = parse_program(source)
    with rec.span("lang.resolve", "lang"):
        info = resolve_program(program)
    with rec.span("lang.typecheck", "lang"):
        typecheck_program(info)
    counts["lang.tokens"] += len(tokens)
    if source not in nodes:
        nodes[source] = count_nodes(program)
    counts["lang.ast_nodes"] += nodes[source]
    return info


def _pass(rec: Recorder, order, oracle: Oracle, nodes: dict) -> dict:
    """One corpus pass split into layer calls; returns its count metrics.
    ``nodes`` memoises AST sizes per source, so counting stays out of the
    measured passes."""
    counts = dict.fromkeys(
        ("lang.tokens", "lang.ast_nodes", "core.diagnostics",
         "infer.locations", "infer.lattices", "infer.dropped_flows"), 0)
    for op, name, source in order:
        oracle.result.attempted += 1
        try:
            _traced_op(rec, op, name, source, oracle, counts, nodes)
        except Exception as exc:  # a crash is a failed operation
            oracle.result.fail(f"{op} {name}: {type(exc).__name__}: {exc}")
    return counts


def _traced_op(rec: Recorder, op: str, name: str, source: str,
               oracle: Oracle, counts: dict, nodes: dict) -> None:
    with rec.span(f"bench.{op}", "bench"):
        info = _lang(rec, source, counts, nodes)
        if op == "check":
            with rec.span("core.lattice_build", "core"):
                checker = SJavaChecker(info)
            with rec.span("core.check", "core"):
                report = checker.run()
            counts["core.diagnostics"] += len(report.diagnostics)
            oracle.check(name, report)
        else:
            with rec.span("infer.engine", "infer"):
                inferred = infer_annotations(info, verify=False)
            with rec.span("infer.verify", "infer"):
                report = check_program(inferred.annotated_source)
            counts["infer.locations"] += inferred.summary.total_locations
            counts["infer.lattices"] += len(inferred.lattices)
            counts["infer.dropped_flows"] += len(inferred.dropped_flows)
            oracle.infer(name, report.self_stabilizing)
    return counts


LAYER_TIMES = ("lang.tokenize", "lang.parse", "lang.resolve",
               "lang.typecheck", "core.lattice_build", "core.check",
               "infer.engine", "infer.verify")


def _traced(seed: int, seconds: int, result: Result, answers) -> TraceRun:
    """Untraced and traced corpus passes, alternating, over identical
    inputs; the traced ones give the per-layer figures, the pair gives
    the tracing overhead."""
    oracle = Oracle(result, answers)
    passes = analyze_passes(seed)
    rec = Recorder()
    idle = Recorder(enabled=False)
    nodes: dict[str, int] = {}
    walls = {True: [], False: []}
    counts = [_pass(idle, next(passes), oracle, nodes)]  # warm-up
    per_pass: dict[str, list[float]] = {name: [] for name in LAYER_TIMES}
    for _ in range(seconds):
        order = next(passes)
        for traced in (False, True):
            first = len(rec.spans)
            t0 = time.perf_counter()
            counts.append(_pass(rec if traced else idle, order, oracle, nodes))
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                spans = rec.spans[first:]
                for name in LAYER_TIMES:
                    per_pass[name].append(sum(
                        s.seconds for s in spans if s.name == name) * 1000)
    if any(c != counts[0] for c in counts):
        result.fail(f"count metrics differ between passes: {counts}")
    for name, value in counts[0].items():
        result.put(name, value, "count")
    for name in LAYER_TIMES:
        result.put(f"{name}_ms", median_or_zero(per_pass[name]), "ms")
    tokenize_ms = median_or_zero(per_pass["lang.tokenize"])
    result.put("lang.tokens_per_s", counts[0]["lang.tokens"] * 1000
               / tokenize_ms if tokenize_ms else 0.0, "1/s")
    return TraceRun(rec, sum(walls[True]), sum(walls[False]))
