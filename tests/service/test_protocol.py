"""JSON protocol: round trips, validation, report ordering."""

from __future__ import annotations

import pytest

from repro.core.checker import CheckReport, check_program
from repro.core.errors import Check, Diagnostic, Severity
from repro.service import protocol
from repro.service.protocol import ProtocolError


def _diag(check: Check, severity: Severity, line: int = 3, col: int = 7) -> Diagnostic:
    return Diagnostic(
        severity=severity,
        check=check,
        message=f"synthetic {check.value}/{severity.value}",
        line=line,
        col=col,
        context="T.run",
    )


class TestDiagnosticRoundTrip:
    @pytest.mark.parametrize("check", list(Check))
    @pytest.mark.parametrize("severity", list(Severity))
    def test_every_variant_round_trips(self, check, severity):
        original = _diag(check, severity)
        assert Diagnostic.from_dict(original.to_dict()) == original

    def test_unknown_check_rejected(self):
        data = _diag(Check.LINEAR, Severity.ERROR).to_dict()
        data["check"] = "no-such-analysis"
        with pytest.raises(ValueError):
            Diagnostic.from_dict(data)

    def test_unknown_severity_rejected(self):
        data = _diag(Check.LINEAR, Severity.ERROR).to_dict()
        data["severity"] = "fatal"
        with pytest.raises(ValueError):
            Diagnostic.from_dict(data)


class TestCheckReportRoundTrip:
    def test_report_with_all_variants(self):
        diagnostics = [
            _diag(check, severity, line=i, col=i * 2)
            for i, (check, severity) in enumerate(
                (c, s) for c in Check for s in Severity
            )
        ]
        report = CheckReport(
            diagnostics=diagnostics,
            checked_scope={("A", "run"), ("B", "step")},
        )
        clone = CheckReport.from_dict(report.to_dict())
        assert sorted(clone.diagnostics, key=Diagnostic.sort_key) == sorted(
            report.diagnostics, key=Diagnostic.sort_key
        )
        assert clone.checked_scope == report.checked_scope
        assert clone.self_stabilizing == report.self_stabilizing

    def test_real_report_round_trips(self, wind_source):
        report = check_program(wind_source)
        clone = CheckReport.from_dict(report.to_dict())
        assert clone.self_stabilizing
        assert clone.checked_scope == report.checked_scope

    def test_payload_validates(self, wind_source):
        report = check_program(wind_source)
        payload = protocol.check_payload(report, file="wind.sj")
        protocol.CHECK_SPEC.validate(payload)  # must not raise
        assert payload["version"] == protocol.PROTOCOL_VERSION
        clone = protocol.report_from_payload(payload)
        assert clone.self_stabilizing == report.self_stabilizing


class TestFormatOrdering:
    def test_format_sorts_by_position_then_check(self):
        report = CheckReport(diagnostics=[
            Diagnostic(Severity.ERROR, Check.TERMINATION, "late pass", 9, 1),
            Diagnostic(Severity.ERROR, Check.FLOW_DOWN, "early", 2, 5),
            Diagnostic(Severity.ERROR, Check.EVICTION, "same line", 2, 1),
            Diagnostic(Severity.WARNING, Check.ANNOTATION, "also 2:1", 2, 1),
        ])
        lines = report.format().splitlines()
        # (line, col, check.value): 2:1 annotation < 2:1 eviction
        #   < 2:5 flow-down < 9:1 termination
        assert [l.split("(")[1].split(")")[0] for l in lines] == [
            "annotation", "eviction", "flow-down", "termination",
        ]

    def test_to_dict_uses_sorted_order(self):
        report = CheckReport(diagnostics=[
            Diagnostic(Severity.ERROR, Check.SHARED, "b", 5, 0),
            Diagnostic(Severity.ERROR, Check.LINEAR, "a", 1, 0),
        ])
        emitted = report.to_dict()["diagnostics"]
        assert [d["line"] for d in emitted] == [1, 5]


class TestEnvelopes:
    def test_dumps_is_one_line(self):
        report = CheckReport(diagnostics=[
            Diagnostic(Severity.ERROR, Check.FLOW_DOWN, "multi\nline msg", 1, 1)
        ])
        line = protocol.dumps(protocol.check_payload(report))
        assert "\n" not in line
        assert protocol.loads(line)["error_count"] == 1

    def test_version_mismatch_rejected(self):
        payload = protocol.error_payload("x")
        payload["version"] = "999.0"
        with pytest.raises(ProtocolError):
            protocol.ENVELOPE_SPEC.validate(payload)

    def test_tampered_counts_rejected(self, wind_source):
        payload = protocol.check_payload(check_program(wind_source))
        payload["error_count"] = 3
        with pytest.raises(ProtocolError):
            protocol.CHECK_SPEC.validate(payload)

    def test_campaign_payload_tampering_rejected(self):
        base = {
            "schema": 1,
            "mode": "stratified",
            "seed": 7,
            "burst": 1,
            "complete": True,
            "shards": {"planned": 2, "completed": 2, "infra_failed": 0},
            "infra_failures": [],
            "apps": [{
                "app": "wind_sensor",
                "sites_total": 120,
                "trials": 8,
                "injected": 8,
                "not_injected": 0,
                "masked": 3,
                "recovered": 5,
                "diverged": 0,
                "timeout": 0,
                "mask_rate": 0.375,
                "divergence_rate": 0.0,
                "timeout_rate": 0.0,
                "recovery_histogram": {"0": 5},
                "recovery_iterations_p50": 1,
                "recovery_iterations_p95": 3,
            }],
        }
        payload = protocol.campaign_payload(base)
        assert payload["kind"] == "campaign"
        protocol.CAMPAIGN_SPEC.validate(payload)  # must not raise

        import copy

        def broken(mutate):
            clone = copy.deepcopy(payload)
            mutate(clone)
            with pytest.raises(ProtocolError):
                protocol.CAMPAIGN_SPEC.validate(clone)

        broken(lambda p: p.update(mode="chaotic"))
        broken(lambda p: p.update(complete="yes"))
        broken(lambda p: p["shards"].update(planned=-1))
        broken(lambda p: p.update(apps=[]))
        # verdict counts must sum to injected
        broken(lambda p: p["apps"][0].update(masked=4))
        # injected + not_injected must equal trials
        broken(lambda p: p["apps"][0].update(not_injected=1))
        broken(lambda p: p["apps"][0].update(mask_rate=1.5))
        broken(lambda p: p["apps"][0].update(recovery_histogram={"0": -1}))
        broken(lambda p: p["apps"][0].update(recovery_iterations_p95="3"))

    def test_infer_summary_round_trips(self, wind_source):
        from repro.infer.metrics import MetricsSummary
        from repro.lang import parse_program, resolve_program, typecheck_program
        from repro.apps import strip_location_annotations
        from repro.infer import infer_annotations

        program = parse_program(strip_location_annotations(wind_source))
        info = resolve_program(program)
        typecheck_program(info)
        result = infer_annotations(info, verify=True)
        payload = protocol.infer_payload(result.summary_dict(), file="w.sj")
        assert payload["kind"] == "infer"
        assert payload["verified"] is True
        clone = MetricsSummary.from_dict(payload["summary"])
        assert clone.total_locations == result.summary.total_locations
        assert clone.total_paths == result.summary.total_paths
