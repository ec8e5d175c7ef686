"""The declarative payload validator, table-driven over every spec.

Each golden validates; every field the golden carries is then deleted
(when required) and given a wrong-typed value, and the spec must raise
its own error class with the field's path in the message."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.core.checker import CheckReport
from repro.core.errors import Check, Diagnostic, Severity
from repro.obs.bench import BENCH_SPEC, BenchError
from repro.obs.events import EVENT_SPEC, EventError
from repro.obs.profile import PROFILE_SPEC, ProfileError
from repro.obs.resources import RESOURCES_SPEC, ResourceError
from repro.obs.schema import ListOf, MapOf, Maybe, Obj
from repro.obs.sinks import SPAN_SPEC, TraceError
from repro.service import protocol
from repro.service.protocol import ProtocolError

OBS_GOLDEN = Path(__file__).parent / "golden"
SERVICE_GOLDEN = Path(__file__).parent.parent / "service" / "golden"


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_with_a_diagnostic() -> dict:
    """The check golden has no diagnostics; this payload has one, so
    the diagnostic fields are covered too."""
    report = CheckReport(
        diagnostics=[Diagnostic(
            severity=Severity.ERROR, check=Check.FLOW_DOWN,
            message="flows up", line=3, col=7, context="T.run",
        )],
        checked_scope={("T", "run")},
    )
    return protocol.check_payload(report)


def _bench_envelope() -> dict:
    return protocol.bench_payload(_json(OBS_GOLDEN / "bench.golden.json"))


#: name -> (spec, error class, sample payloads)
SPECS = {
    "bench": (BENCH_SPEC, BenchError, [
        _json(OBS_GOLDEN / "bench.golden.json"),
        _json(OBS_GOLDEN / "bench_memory.golden.json"),
    ]),
    "profile": (PROFILE_SPEC, ProfileError, [
        _json(OBS_GOLDEN / "profile.golden.json"),
    ]),
    "resources": (RESOURCES_SPEC, ResourceError, [
        _json(OBS_GOLDEN / "resources.golden.json"),
    ]),
    "event": (EVENT_SPEC, EventError, [
        json.loads(line) for line in
        (OBS_GOLDEN / "events.golden.jsonl").read_text().splitlines()
    ]),
    "span": (SPAN_SPEC, TraceError, [
        json.loads(line)
        for name in ("trace.golden.jsonl", "merged_trace.golden.jsonl")
        for line in (OBS_GOLDEN / name).read_text().splitlines()
    ]),
    "check": (protocol.CHECK_SPEC, ProtocolError, [
        _json(SERVICE_GOLDEN / "wind_sensor.check.json"),
        _check_with_a_diagnostic(),
    ]),
    "campaign": (protocol.CAMPAIGN_SPEC, ProtocolError, [
        _json(SERVICE_GOLDEN / "campaign.report.json"),
    ]),
    "bench-envelope": (protocol.BENCH_ENVELOPE_SPEC, ProtocolError, [
        _bench_envelope(),
    ]),
    "envelope": (protocol.ENVELOPE_SPEC, ProtocolError, [
        _json(SERVICE_GOLDEN / "wind_sensor.check.json"),
    ]),
}

_DELETE = object()


def _wrong_value(kind):
    """A value ``kind`` rejects, or None when it accepts anything."""
    for candidate in (True, "?"):
        try:
            kind.check(candidate, "probe", ValueError)
        except ValueError:
            return candidate
    return None


def _mutations(kind, value, keys=(), path="", root="", key_field=None):
    """``(case, keys, replacement, expected)`` for every field of
    ``value`` the spec names: delete it when required, and give it a
    value of the wrong type.  ``expected`` are substrings the error
    message must carry — the field path, rendered the way the
    validator renders it."""
    if isinstance(kind, Maybe):
        kind = kind.kind
    if isinstance(kind, Obj):
        where = path or root
        for name, field in kind.fields.items():
            if name not in value:
                continue
            field_path = f"{path}.{name}" if path else name
            # A keyed list reports its rows' missing or mistyped key on
            # the row itself ("spans[0] needs a name").
            at = where if name == key_field else field_path
            if not field.optional:
                yield f"{field_path}:delete", keys + (name,), _DELETE, (
                    where, name,
                )
            wrong = _wrong_value(field)
            if wrong is not None:
                yield f"{field_path}:wrong", keys + (name,), wrong, (at,)
            yield from _mutations(
                field, value[name], keys + (name,), field_path, root
            )
    elif isinstance(kind, ListOf) and value:
        yield from _mutations(
            kind.item, value[0], keys + (0,), f"{path}[0]", root, kind.key
        )
    elif isinstance(kind, MapOf) and value:
        key = next(iter(value))
        where = f"{kind.label} {key!r}" if kind.label else f"{path}[{key!r}]"
        yield from _mutations(kind.item, value[key], keys + (key,), where, root)


def _cases():
    for name, (spec, error, samples) in SPECS.items():
        seen = set()
        for sample in samples:
            for case, keys, replacement, expected in _mutations(
                spec, sample, root=spec.what
            ):
                if case in seen:
                    continue
                seen.add(case)
                yield pytest.param(
                    spec, error, sample, keys, replacement, expected,
                    id=f"{name}:{case}",
                )


@pytest.mark.parametrize("name", SPECS)
def test_goldens_validate(name):
    spec, _, samples = SPECS[name]
    for sample in samples:
        assert spec.validate(sample) is sample


@pytest.mark.parametrize(
    "spec, error, sample, keys, replacement, expected", list(_cases())
)
def test_every_field_is_checked(spec, error, sample, keys, replacement,
                                expected):
    payload = copy.deepcopy(sample)
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = replacement
    with pytest.raises(error) as caught:
        spec.validate(payload)
    for part in expected:
        assert part in str(caught.value)


@pytest.mark.parametrize("spec, golden, keys", [
    (PROFILE_SPEC, OBS_GOLDEN / "profile.golden.json",
     ("samples", 0, "count")),
    (BENCH_SPEC, OBS_GOLDEN / "bench.golden.json",
     ("scenarios", 0, "min_seconds")),
    (protocol.CAMPAIGN_SPEC, SERVICE_GOLDEN / "campaign.report.json",
     ("seed",)),
])
def test_json_booleans_are_not_numbers(spec, golden, keys):
    """``isinstance(True, int)`` holds in Python, but a JSON ``true``
    is not a count, a duration or a seed."""
    payload = _json(golden)
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = True
    with pytest.raises(spec.error, match=r"\b" + keys[-1] + r"\b"):
        spec.validate(payload)


def test_cross_field_rules_follow_field_checks():
    """A per-spec check runs only once every field it reads is valid,
    and its message is prefixed with the object's path."""
    payload = _json(OBS_GOLDEN / "bench.golden.json")
    payload["scenarios"][0]["repetitions"] += 1
    with pytest.raises(BenchError, match=r"^scenarios\[0\]: repetitions"):
        BENCH_SPEC.validate(payload)


def test_extra_keys_are_allowed():
    payload = _json(OBS_GOLDEN / "profile.golden.json")
    payload["added_later"] = {"anything": 1}
    assert PROFILE_SPEC.validate(payload) is payload
