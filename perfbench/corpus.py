"""Known answers and the seeded inputs of every workload.

The known-answer corpus is the bundled apps, which the checker must
accept, plus one small program per analysis that it must reject, each
with the exact set of checks expected to fail.  The reject programs
follow the bug shapes of ``examples/catch_a_bug.py``.

Every input a workload sends to the program comes from a generator here,
seeded only by ``--seed``; :func:`describe` serialises them so the
self-tests can compare two seeds byte for byte.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from repro.apps import all_app_names, app_source, strip_location_annotations


def _loop(body: str, lattice: str = "B<X,X<IN", head: str = "",
          fields: str = "") -> str:
    return f"""{head}
class Main {{
  {fields}
  @LATTICE("{lattice}") @THISLOC("X")
  void run() {{
    SSJAVA:
    while (true) {{
      @LOC("IN") int v = Device.readSensor();
      {body}
    }}
  }}
}}
"""


#: name -> (source, checks that must fail).  One program per analysis.
REJECTS: dict[str, tuple[str, frozenset[str]]] = {
    # A value flows up the lattice: calibrated (CAL) is written back
    # into raw (RAW), and CAL < RAW.
    "reject_flow_down": (_loop(
        "raw = v; cal = raw + 1; raw = cal; SJ.broadcast(cal);",
        head='@LATTICE("CAL<RAW")',
        fields='@LOC("RAW") int raw; @LOC("CAL") int cal;',
    ), frozenset({"flow-down"})),
    # last is overwritten only on one branch, so a corrupted value can
    # survive every iteration.
    "reject_eviction": (_loop(
        "if (v > 0) { last = v; } SJ.broadcast(last);",
        head='@LATTICE("LAST")', fields='@LOC("LAST") int last;',
    ), frozenset({"eviction"})),
    # Nothing bounds the retry loop.
    "reject_termination": (_loop(
        '@LOC("B") int got = v; while (got < 0) { got = got * 2; }'
        " SJ.broadcast(got);",
        lattice="B<X,X<IN,B*",
    ), frozenset({"termination"})),
    # The shared accumulator only ever receives shared values, so a
    # corrupted count circulates forever.
    "reject_shared": ("""
class Main {
  @LATTICE("B<X,X<IN,S<IN,S*")
  @THISLOC("X")
  void run() {
    @LOC("S") int acc = 0;
    SSJAVA:
    while (true) {
      @LOC("IN") int v = Device.readSensor();
      acc = acc + 1;
      SJ.broadcast(acc);
    }
  }
}
""", frozenset({"shared"})),
    # A field-to-field reference copy breaks the heap-forest discipline.
    "reject_linear": ("""
@LATTICE("IV<IW")
class Item { @LOC("IV") int v; @LOC("IW") int w; }
@LATTICE("G<F")
class Holder { @LOC("F") Item f; @LOC("G") Item g; }
@LATTICE("HOL")
class Main {
  @LOC("HOL") Holder holder = new Holder();
  @LATTICE("B<ITV,ITV<X,X<IN")
  @THISLOC("X")
  void run() {
    SSJAVA:
    while (true) {
      @LOC("IN") int v = Device.readSensor();
      holder.g = holder.f;
      SJ.broadcast(v);
    }
  }
}
""", frozenset({"linear"})),
}


@dataclass(frozen=True)
class Known:
    """One corpus program and its independent answer: the set of checks
    that must fail (empty: the checker must accept it)."""

    name: str
    source: str
    expect: frozenset[str]


def known_answers() -> list[Known]:
    accepted = [Known(n, app_source(n), frozenset()) for n in all_app_names()]
    rejected = [Known(n, s, e) for n, (s, e) in REJECTS.items()]
    return accepted + rejected


def stripped_apps() -> list[tuple[str, str]]:
    """SInfer inputs: every bundled app with its location annotations
    removed."""
    return [(n, strip_location_annotations(app_source(n)))
            for n in all_app_names()]


def failing_checks(report) -> frozenset[str]:
    return frozenset(d.check.value for d in report.errors)


# ---------------------------------------------------------------------------
# analyze: the corpus in seeded order, pass after pass
# ---------------------------------------------------------------------------


def analyze_passes(seed: int):
    """Endless corpus passes; each pass is every check and every SInfer
    input once, in an order drawn from ``seed``."""
    ops = [("check", k.name, k.source) for k in known_answers()]
    ops += [("infer", n, s) for n, s in stripped_apps()]
    rng = random.Random(f"analyze:{seed}")
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# serve: the closed-loop request mix
# ---------------------------------------------------------------------------

#: One block of the serve mix: 15 re-checks of unchanged bundled sources
#: (cache reads), 3 checks of seeded verdict-preserving edits (cache
#: misses, i.e. writes) and 2 SInfer requests on stripped sources.  With
#: one closed-loop client no hit waits behind another request, so the
#: median round trip sits inside the hit mode and the 90th percentile
#: among the misses and infers.
BLOCK = (("hit", 15), ("miss", 3), ("infer", 2))


def serve_requests(seed: int, client: int):
    """Endless requests for one client: ``(kind, app, source)``.  A miss
    appends a unique comment to a bundled source, which changes the
    bytes (so the cache misses) and keeps the verdict."""
    apps = list(all_app_names())
    stripped = dict(stripped_apps())
    rng = random.Random(f"serve:{seed}:{client}")
    misses = itertools.cycle(rng.sample(apps, len(apps)))
    infers = itertools.cycle(rng.sample(apps, len(apps)))
    for block in itertools.count():
        kinds = [kind for kind, n in BLOCK for _ in range(n)]
        rng.shuffle(kinds)
        for index, kind in enumerate(kinds):
            if kind == "hit":
                app = rng.choice(apps)
                yield kind, app, app_source(app)
            elif kind == "miss":
                app = next(misses)
                tag = f"{seed}:{client}:{block}:{index}"
                yield kind, app, f"{app_source(app)}\n// edit {tag}\n"
            else:
                app = next(infers)
                yield kind, app, stripped[app]


# ---------------------------------------------------------------------------
# campaign: one stratified sweep
# ---------------------------------------------------------------------------

CAMPAIGN_APPS = ("mp3_decoder", "eye_tracker", "gradient_channel")


#: Trials per app in one sweep: 3 shards of 8, about 3.5 s of sweep on a
#: 2-CPU box.
SWEEP_TRIALS = 24
SHARD_TRIALS = 8
#: The sweeps every campaign run draws from: one pass is about 30 s.
SWEEP_POOL = 8


def campaign_sweep(seed: int, index: int):
    """Sweep ``index`` of a run: 8 trials per shard, 3 shards per app.
    One stratum per trial, so each sweep samples the whole site space
    evenly.

    The sweeps come from a fixed pool of :data:`SWEEP_POOL`, in an order
    drawn from ``seed``, and round again if the run outlasts the pool (a
    run makes at least one pass; repeats count once in its figures).
    A few sites cost ten times the others (their corrupted runs log
    thousands of crash-avoided errors), and a 30 s run holds only about
    60 shards, so with sites drawn afresh per seed the few slowest
    shards, and with them the tail percentiles of trial latency, moved by
    a third between seeds.  With the pool, runs of any seed time the
    same trials, in another order."""
    from repro.runtime.campaign import CampaignConfig

    order = list(range(SWEEP_POOL))
    random.Random(f"sweeps:{seed}").shuffle(order)
    which = order[index % SWEEP_POOL]
    return CampaignConfig(
        apps=CAMPAIGN_APPS,
        mode="stratified",
        trials=SWEEP_TRIALS,
        strata=SWEEP_TRIALS,
        seed=random.Random(f"sweep:{which}").randrange(2**31),
        shard_size=SHARD_TRIALS,
    )


def describe(workload: str, seed: int, count: int = 200) -> str:
    """The first inputs a workload would send, as canonical JSON — what
    the self-tests compare across seeds."""
    if workload == "analyze":
        passes = analyze_passes(seed)
        inputs = [next(passes) for _ in range(3)]
    elif workload == "serve":
        inputs = [list(itertools.islice(serve_requests(seed, c), count))
                  for c in (0, 1)]
    elif workload == "campaign":
        inputs = [campaign_sweep(seed, i).to_dict() for i in range(3)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(inputs, sort_keys=True)
