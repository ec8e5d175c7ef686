"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

From the checkout root.  Checks that

* the same seed generates byte-identical inputs and another seed
  different ones, for every workload;
* every metric a run prints, traced and untraced, is declared in
  ``BENCHMARK.json`` with the same unit (short runs of every workload);
* the oracles can fail: a flipped expected verdict in the ``analyze``
  corpus and a tampered campaign trial record each make ``failed``
  non-zero;
* a program that fails every call still ends the timed window on time,
  with every attempted operation counted as failed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import analyze, campaign  # noqa: E402
from perfbench.common import Result  # noqa: E402
from perfbench.corpus import campaign_sweep, describe, known_answers  # noqa: E402
from perfbench.run import WORKLOADS, declared  # noqa: E402


def check_inputs() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        if describe(workload, 7) != describe(workload, 7):
            problems.append(f"{workload}: seed 7 gave two different inputs")
        if describe(workload, 7) == describe(workload, 8):
            problems.append(f"{workload}: seeds 7 and 8 gave equal inputs")
    return problems


def check_declared(seconds: int = 3) -> list[str]:
    problems = []
    units = declared()
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}: "
                                f"{run.stderr.strip()[-500:]}")
                continue
            line = json.loads(run.stdout.strip().splitlines()[-1])
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            if got != units[kind]:
                problems.append(f"{where}: metrics differ from the "
                                f"declared {kind} ones")
            if not line["correct"] or line["failed"]:
                problems.append(f"{where}: run not correct: "
                                f"{run.stderr.strip()[-500:]}")
    return problems


def check_oracles_fail() -> list[str]:
    problems = []
    planted = [
        replace(k, expect=frozenset({"flow-down"}))
        if k.name == "wind_sensor" else k
        for k in known_answers()
    ]
    result = Result()
    analyze.run(1, 1, False, result, answers=planted)
    if result.failed == 0:
        problems.append("analyze: a flipped expected verdict went unnoticed")

    experiment = campaign._experiment(campaign_sweep(1, 0), "eye_tracker")
    site = experiment.total_steps() // 2
    from repro.runtime.campaign import trial_record

    record = campaign._plain(trial_record(
        "eye_tracker", experiment.trial_at(site, seed=1)))
    record["verdict"] = "diverged" if record["verdict"] != "diverged" else "masked"
    result = Result()
    campaign._differential(1, [("eye_tracker", site, 1, record)], result)
    if result.failed == 0:
        problems.append("campaign: a tampered trial record went unnoticed")
    return problems


def check_broken_program_ends() -> list[str]:
    """A program whose every call raises must end the timed window on
    time and report every attempted operation as failed."""
    def broken(*args, **kwargs):
        raise RuntimeError("planted failure")

    saved = analyze.check_program, analyze.infer_annotations
    analyze.check_program = analyze.infer_annotations = broken
    try:
        result = Result()
        start = time.perf_counter()
        analyze.run(1, 1, False, result)
        seconds = time.perf_counter() - start
    finally:
        analyze.check_program, analyze.infer_annotations = saved
    problems = []
    if result.attempted == 0 or result.failed != result.attempted:
        problems.append(f"analyze: a program failing every call gave "
                        f"{result.failed} failed of {result.attempted}")
    if seconds > 60:
        problems.append(f"analyze: a program failing every call ran "
                        f"{seconds:.0f} s for --seconds 1")
    return problems


def main() -> int:
    problems = (check_inputs() + check_oracles_fail()
                + check_broken_program_ends() + check_declared())
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else
          f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
