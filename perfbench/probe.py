"""One fresh-process set-up of a workload, for ``setup_s``: interpreter
start, the imports the workload needs and the build of its inputs.

Run as ``python3 perfbench/probe.py WORKLOAD`` from the checkout root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(workload: str) -> None:
    if workload == "analyze":
        import repro  # noqa: F401  (check, infer and the front end)
        from perfbench.corpus import analyze_passes

        next(analyze_passes(0))
    elif workload == "campaign":
        import repro.runtime.campaign  # noqa: F401
        from repro.apps import resolve_experiment
        from perfbench.corpus import CAMPAIGN_APPS

        for app in CAMPAIGN_APPS:
            resolve_experiment(app)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1])
    print("ready", flush=True)
