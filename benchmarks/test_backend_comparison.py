"""Execution backend comparison: tree-walking interpreter vs the
closure-compiling runner (the code-generation strategy of Section 4.4).

Both are observationally identical (differential tests in
``tests/runtime/test_compiler.py``); this benchmark quantifies the
compiled backend's speedup on the MP3 decoder, the heaviest workload.
The speedup is the figure's content, so both engines are timed here,
through the ``repro bench`` runner.
"""

from __future__ import annotations

from repro.apps import app_device_factory, load_app
from repro.obs.bench import KIND_INTERPRETER, Scenario, run_scenario
from repro.runtime import Interpreter, RuntimeOptions
from repro.runtime.compiler import CompiledRunner

from .conftest import write_result

FRAMES = 40


def decode_scenario(backend) -> Scenario:
    """One full MP3 decode on ``backend``; counts the output samples."""

    def build():
        app = load_app("mp3_decoder")
        devices = app_device_factory("mp3_decoder", FRAMES)

        def op() -> dict:
            engine = backend(
                app.info, devices(), options=RuntimeOptions(ignore_errors=True)
            )
            return {"samples": len(engine.run())}

        return op

    return Scenario(f"backend/{backend.__name__}", KIND_INTERPRETER, (), build)


def test_backend_speedup_report():
    interp_run, compiled_run = (
        run_scenario(decode_scenario(backend), warmup=0, repetitions=3)
        for backend in (Interpreter, CompiledRunner)
    )
    assert interp_run["counters"]["samples"] == FRAMES * 16
    assert compiled_run["counters"]["samples"] == FRAMES * 16
    interp = interp_run["min_seconds"]
    compiled = compiled_run["min_seconds"]
    lines = [
        "Execution backends on the MP3 decoder "
        f"({FRAMES} frames, best of 3):",
        f"  tree-walking interpreter: {interp * 1000:8.1f} ms",
        f"  closure-compiled runner:  {compiled * 1000:8.1f} ms",
        f"  speedup: {interp / compiled:.2f}x",
    ]
    write_result("backend_comparison.txt", "\n".join(lines))
    assert compiled <= interp * 1.2
