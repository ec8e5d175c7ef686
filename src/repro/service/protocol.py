"""Versioned JSON wire protocol for the checking service.

Every payload the service emits — ``repro check --json``, ``repro batch
--json``, daemon responses — is a JSON object carrying a ``version``
field so clients can reject envelopes they do not understand.  The
schema is documented in ``docs/SERVICE.md``; :data:`CHECK_SPEC` is the
executable version of that document.

Payload kinds:

* ``check`` — verdict of one :class:`~repro.core.checker.CheckReport`
  (:func:`check_payload` / :func:`report_from_payload`);
* ``infer`` — an inference run summary (:func:`infer_payload`);
* ``error`` — a front-end or service failure (:func:`error_payload`);
* ``campaign`` — the aggregate report of a fault-injection campaign
  (:func:`campaign_payload`; schema in ``docs/ROBUSTNESS.md``,
  enforced by :data:`CAMPAIGN_SPEC`).

Serialization is newline-delimited: :func:`dumps` produces exactly one
line (no interior newlines), which is what the daemon speaks over its
Unix socket.

Daemon **requests** may carry one optional envelope field on top of the
per-op fields: ``trace``, a W3C-traceparent-style string
(``"00-<trace_id>-<span_id>-01"``, see :mod:`repro.obs.propagate`)
naming the calling client's active span.  The daemon then records that
span as the remote parent of its ``op.<name>`` span, stitching daemon
work into the client's distributed trace.  The field is additive and
optional: requests without it are handled exactly as before (old
clients stay byte-compatible), and a malformed value is answered with
an ``ok: false`` response, never a dropped connection.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.checker import CheckReport
from repro.core.errors import Check, Severity
from repro.obs.bench import BENCH_SPEC
from repro.obs.schema import (
    BOOL,
    INT,
    NONNEG_INT,
    RATE,
    STR,
    Kind,
    ListOf,
    MapOf,
    Maybe,
    Obj,
    Spec,
    const,
    one_of,
)

#: Bump the minor version for additive changes, the major version for
#: breaking ones.  Cache entries embed this, so any bump invalidates the
#: on-disk result store.
PROTOCOL_VERSION = "1.0"


class ProtocolError(ValueError):
    """A payload violated the documented schema."""


def dumps(payload: dict) -> str:
    """Compact, single-line, key-sorted JSON — the wire form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Payload constructors
# ---------------------------------------------------------------------------


def check_payload(
    report: CheckReport,
    *,
    file: Optional[str] = None,
    elapsed_seconds: Optional[float] = None,
    timings: Optional[dict] = None,
    cached: bool = False,
) -> dict:
    payload = {
        "version": PROTOCOL_VERSION,
        "kind": "check",
        "self_stabilizing": report.self_stabilizing,
        "error_count": len(report.errors),
        "warning_count": len(report.warnings),
        "report": report.to_dict(),
        "cached": cached,
    }
    if file is not None:
        payload["file"] = file
    if elapsed_seconds is not None:
        payload["elapsed_seconds"] = elapsed_seconds
    if timings is not None:
        payload["timings"] = timings
    return payload


def report_from_payload(payload: dict) -> CheckReport:
    CHECK_SPEC.validate(payload)
    return CheckReport.from_dict(payload["report"])


def infer_payload(
    summary: dict,
    *,
    file: Optional[str] = None,
    timings: Optional[dict] = None,
) -> dict:
    """Wrap :meth:`InferenceResult.summary_dict` in a versioned envelope."""
    payload = {"version": PROTOCOL_VERSION, "kind": "infer", **summary}
    if file is not None:
        payload["file"] = file
    if timings is not None:
        payload["timings"] = timings
    return payload


def campaign_payload(summary: dict) -> dict:
    """Wrap a campaign report (``CampaignReport.to_dict``) in the
    versioned envelope.  The summary stays a plain dict so this module
    never imports the runtime layer."""
    return {"version": PROTOCOL_VERSION, "kind": "campaign", **summary}


def chaos_payload(summary: dict) -> dict:
    """Wrap a chaos report (:func:`repro.chaos.run_campaign_oracle` /
    ``run_batch_oracle`` output) in the versioned envelope.  Plain dict
    in, so this module never imports the chaos layer."""
    return {"version": PROTOCOL_VERSION, "kind": "chaos", **summary}


def bench_payload(document: dict) -> dict:
    """Wrap a bench document (:func:`repro.obs.bench.bench_payload`,
    already schema-versioned on its own) in the versioned envelope, so
    ``repro bench --json`` speaks the same protocol as every other
    ``--json`` command."""
    return {"version": PROTOCOL_VERSION, **document}


def error_payload(
    message: str, *, file: Optional[str] = None, error: str = "front-end"
) -> dict:
    """A failure that produced no report (syntax/resolve/type errors,
    worker crashes, timeouts)."""
    payload = {
        "version": PROTOCOL_VERSION,
        "kind": "error",
        "error": error,
        "message": message,
    }
    if file is not None:
        payload["file"] = file
    return payload


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _speaks_our_major(version) -> bool:
    return (
        isinstance(version, str)
        and version.split(".", 1)[0] == PROTOCOL_VERSION.split(".", 1)[0]
    )


_VERSION = Kind(
    "a protocol version",
    _speaks_our_major,
    message=(
        f"unsupported protocol version {{value!r}} "
        f"(speaking {PROTOCOL_VERSION})"
    ),
)


def _kind(name: str) -> Kind:
    return const(name, f"expected kind {name!r}, got {{value!r}}")


#: What every payload and response carries: a version we speak.
ENVELOPE_SPEC = Spec("payload", ProtocolError, {"version": _VERSION})


def _counts_agree(payload: dict) -> Optional[str]:
    errors = sum(
        1 for diagnostic in payload["report"]["diagnostics"]
        if diagnostic["severity"] == "error"
    )
    if payload["error_count"] != errors:
        return "error_count disagrees with diagnostics"
    if payload["self_stabilizing"] != (payload["error_count"] == 0):
        return "self_stabilizing disagrees with error_count"
    return None


_SCOPE_PAIR = Kind(
    "a [class, method] string pair",
    lambda pair: isinstance(pair, list) and len(pair) == 2
    and all(isinstance(part, str) for part in pair),
)

#: The ``check`` envelope (the schema in ``docs/SERVICE.md``).
CHECK_SPEC = Spec("check payload", ProtocolError, {
    "version": _VERSION,
    "kind": _kind("check"),
    "self_stabilizing": BOOL,
    "error_count": INT,
    "warning_count": INT,
    "report": Obj({
        "self_stabilizing": BOOL,
        "diagnostics": ListOf(Obj({
            "severity": one_of(sorted(s.value for s in Severity)),
            "check": one_of(sorted(c.value for c in Check)),
            "message": STR,
            "line": INT,
            "col": INT,
            "context": STR,
        })),
        "checked_scope": ListOf(_SCOPE_PAIR),
    }),
}, checks=(_counts_agree,))


_CAMPAIGN_APP_COUNTS = (
    "sites_total", "trials", "injected", "masked", "recovered",
    "diverged", "timeout", "not_injected",
)


def _verdicts_sum(entry: dict) -> Optional[str]:
    if entry["injected"] + entry["not_injected"] != entry["trials"]:
        return "injected + not_injected must equal trials"
    verdicts = (
        entry["masked"] + entry["recovered"] + entry["diverged"]
        + entry["timeout"]
    )
    if verdicts != entry["injected"]:
        return "per-verdict counts must sum to injected"
    return None


#: The ``campaign`` envelope (the schema in ``docs/ROBUSTNESS.md``).
CAMPAIGN_SPEC = Spec("campaign payload", ProtocolError, {
    "version": _VERSION,
    "kind": _kind("campaign"),
    "mode": one_of(("exhaustive", "stratified", "uniform")),
    "seed": INT,
    "complete": BOOL,
    "shards": Obj({
        "planned": NONNEG_INT,
        "completed": NONNEG_INT,
        "infra_failed": NONNEG_INT,
    }),
    "apps": ListOf(Obj({
        "app": STR,
        **{field: NONNEG_INT for field in _CAMPAIGN_APP_COUNTS},
        "mask_rate": RATE,
        "divergence_rate": RATE,
        "timeout_rate": RATE,
        "recovery_histogram": MapOf(NONNEG_INT),
        "recovery_iterations_p50": Maybe(INT),
        "recovery_iterations_p95": Maybe(INT),
    }, checks=(_verdicts_sum,)), nonempty=True),
})

#: The ``bench`` envelope: a bench document
#: (:data:`repro.obs.bench.BENCH_SPEC`) plus the protocol version.
BENCH_ENVELOPE_SPEC = Spec(
    "bench envelope",
    ProtocolError,
    {"version": _VERSION, **BENCH_SPEC.fields},
    BENCH_SPEC.checks,
)
