"""Shared configuration for the evaluation benchmarks.

Each test regenerates one table or figure of the paper's Chapter 6
evaluation: it prints the table, writes it to ``benchmarks/results/``
and asserts the figure's shape.  Nothing here times anything — the
unit operation behind each figure is a registered ``repro bench``
scenario (``docs/BENCHMARKS.md`` maps figures to scenarios).

Scale: the paper uses 1,000 MP3 trials and 100 eye/robot trials.  The
default here is reduced so a full benchmark run stays in the minutes;
set ``REPRO_FULL=1`` to run at paper scale.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: (mp3 trials, eye trials, robot trials)
MP3_TRIALS = 1000 if FULL else 120
EYE_TRIALS = 100 if FULL else 60
ROBOT_TRIALS = 100 if FULL else 60
MP3_FRAMES = 60 if FULL else 36

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text, encoding="utf-8")
    print("\n" + text)


@pytest.fixture(scope="session")
def scale() -> dict:
    return {
        "mp3_trials": MP3_TRIALS,
        "eye_trials": EYE_TRIALS,
        "robot_trials": ROBOT_TRIALS,
        "mp3_frames": MP3_FRAMES,
        "full": FULL,
    }
