"""End-to-end checker verdicts over the benchmark suite: the complete
SJava pipeline — parse, resolve, conventional typing, flow-down, linear
types, inheritance, termination, eviction, shared locations — accepts
every application.  Its cost (the paper's "Time" column context) is
timed by the ``check/<app>`` and ``service-batch/apps`` bench
scenarios."""

from __future__ import annotations

from repro.apps import APP_NAMES, app_source
from repro.core.checker import check_program

from .conftest import write_result


def check_all() -> dict[str, bool]:
    return {
        name: check_program(app_source(name)).self_stabilizing
        for name in APP_NAMES
    }


def test_checker_end_to_end():
    results = check_all()
    lines = ["Full SJava checker over all benchmarks:"]
    for name, ok in results.items():
        lines.append(f"  {name:16s} self-stabilizing: {ok}")
    write_result("checker_end_to_end.txt", "\n".join(lines))
    assert all(results.values())
