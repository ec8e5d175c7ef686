"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Run from the checkout root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is a separate run that times the
benchmark's own calls into each layer and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every metric name and unit is declared in ``BENCHMARK.json``; per-layer
metrics of a layer a workload does not reach read 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze", "serve", "campaign")


def declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import (
        WORK, Result, code_digest, finish_trace, repeat_counts,
    )

    workload = importlib.import_module(f"perfbench.{args.workload}")
    result = Result()
    traced = workload.run(args.seed, args.seconds, bool(args.trace), result)
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared()[kind]
    if traced is not None:
        counts = {n: v for n, (v, u) in result.metrics.items()
                  if u == "count"}
        repeat_counts(result, f"{args.workload}-{args.seed}-{args.seconds}",
                      counts, code_digest())
        finish_trace(result, traced, WORK / "traces"
                     / f"{args.workload}-{args.seed}.jsonl")
        for name, unit in units.items():
            result.metrics.setdefault(name, (0.0, unit))
    stray = sorted(set(result.metrics) ^ set(units))
    wrong = sorted(n for n, (_, u) in result.metrics.items()
                   if n in units and units[n] != u)
    if stray or wrong:
        print(f"error: metrics not as declared in BENCHMARK.json: "
              f"{stray + wrong}", file=sys.stderr)
        return 1

    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in result.notes:
        print(note)
    print(f"failed_ratio {result.failed / max(1, result.attempted):.6g} "
          f"({result.failed} of {result.attempted})")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if result.failed > len(result.failures):
        print(f"FAILED: ... and {result.failed - len(result.failures)} "
              "more", file=sys.stderr)
    print(json.dumps({
        "correct": not result.failed,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
