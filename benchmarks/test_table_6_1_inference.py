"""Table 6.1: the inference evaluation.

For each benchmark and each strategy (manual annotations, the naive
maximally-precise inference of Section 5.2, and SInfer's simplified
inference of Section 5.3) the table reports the number of location types
and the number of top-to-bottom lattice paths, split into the paper's
simple (≤5 locations) and complex (>5) lattice categories, plus the
inference time and lines of code.

Expected shape (paper): naive ≥ SInfer in both locations and paths, with
the gap largest on the MP3 decoder (the paper's SynthesisFilter blowup,
Fig. 5.11 vs Fig. 6.4); SInfer is slower than naive; and — the
correctness criterion — every inferred annotation set passes the full
SJava checker.
"""

from __future__ import annotations

from repro.apps import APP_NAMES, app_source, load_app
from repro.core.environment import LocationWorld
from repro.core.errors import DiagnosticSink
from repro.infer import infer_annotations, lattice_metrics
from repro.infer.metrics import summarize_metrics

from .conftest import write_result


def manual_metrics(name: str):
    """Metrics of the hand-written lattices (the paper's 'manual' rows)."""
    app = load_app(name)
    world = LocationWorld(app.info, DiagnosticSink())
    per = []
    for class_name, lattice in sorted(world.field_lattices.items()):
        per.append(lattice_metrics(f"class {class_name}", lattice))
    for key, env in sorted(world.method_envs.items()):
        per.append(lattice_metrics(f"method {key[0]}.{key[1]}", env.lattice))
    return summarize_metrics(per), None


def inferred_metrics(name: str, mode: str):
    app = load_app(name, annotated=False)
    result = infer_annotations(app.info, mode=mode)
    assert result.verified, (
        f"{name}/{mode} inferred annotations failed the checker:\n"
        + result.check_report.format()
    )
    return result.summary, result.elapsed_seconds


def count_loc(source: str) -> int:
    return sum(
        1
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("//")
    )


def test_table_6_1_inference_evaluation():
    lines = [
        "Table 6.1 — Inference evaluation (manual vs naive vs SInfer)",
        f"{'benchmark':14s} {'strategy':8s} "
        f"{'loc<=5':>7s} {'path<=5':>8s} {'loc>5':>7s} {'path>5':>8s} "
        f"{'time(s)':>8s} {'LOC':>5s}",
    ]
    shape_rows = {}
    for name in APP_NAMES:
        sloc = count_loc(app_source(name))
        strategies = [
            ("manual", *manual_metrics(name)),
            ("naive", *inferred_metrics(name, "naive")),
            ("sinfer", *inferred_metrics(name, "sinfer")),
        ]
        for label, summary, elapsed in strategies:
            time_text = f"{elapsed:8.3f}" if elapsed is not None else "     n/a"
            lines.append(
                f"{name:14s} {label:8s} "
                f"{summary.simple_locations:7d} {summary.simple_paths:8d} "
                f"{summary.complex_locations:7d} {summary.complex_paths:8d} "
                f"{time_text} {sloc:5d}"
            )
            shape_rows[(name, label)] = summary
    lines.append(
        "\ncorrectness: all naive and SInfer annotation sets verified by "
        "the full SJava checker (type system + eviction + termination + "
        "linear types)"
    )
    write_result("table_6_1_inference.txt", "\n".join(lines))

    # shape assertions (who wins): SInfer never more complex than naive
    for name in APP_NAMES:
        naive = shape_rows[(name, "naive")]
        sinfer = shape_rows[(name, "sinfer")]
        assert sinfer.total_locations <= naive.total_locations, name
        assert sinfer.total_paths <= naive.total_paths, name
    # and the gap is visible on the decoder pipeline (the paper's
    # SynthesisFilter case)
    mp3_naive = shape_rows[("mp3_decoder", "naive")]
    mp3_sinfer = shape_rows[("mp3_decoder", "sinfer")]
    assert mp3_sinfer.total_paths < mp3_naive.total_paths
