"""The structured event log: envelope schema, levels, sampling,
trace correlation, sinks, filtering, and the pinned JSONL golden."""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from pathlib import Path

import pytest

from repro.obs import (
    EVENTS_SCHEMA,
    EventBuffer,
    EventError,
    EventLog,
    JsonlEventWriter,
    LoggingBridge,
    NullEventLog,
    Tracer,
    filter_events,
    format_event,
)
from repro.obs.events import (
    EVENT_SPEC,
    level_rank,
)
from repro.obs.context import installed, instruments

GOLDEN = Path(__file__).parent / "golden" / "events.golden.jsonl"


def _counting_clock(step: float):
    counter = itertools.count()
    return lambda: next(counter) * step


def _write_reference_events(path: Path) -> None:
    """The reference stream behind the golden file — deterministic
    because the event clock, the tracer clocks, and the sampler are all
    counters."""
    with JsonlEventWriter(path) as writer:
        tracer = Tracer(
            wall_clock=_counting_clock(1.0),
            cpu_clock=_counting_clock(0.5),
        )
        log = EventLog(
            level="debug",
            sinks=(writer,),
            clock=_counting_clock(0.25),
            sample={"runtime.iteration": 2},
        )
        with installed(tracer=tracer):
            log.emit(
                "campaign.plan", level="info",
                apps=["wind_sensor"], planned=2,
            )
            with tracer.span("trial", site=3):
                log.emit(
                    "trial.corrupted", "fault injected",
                    level="info", site=3, iteration=1,
                )
                for iteration in range(4):
                    log.emit(
                        "runtime.iteration", level="debug",
                        iteration=iteration, digest="00000000",
                    )
                log.emit(
                    "trial.recovered", "outputs re-converged",
                    level="info", site=3,
                    recovery_samples=2, recovery_iterations=1,
                )
            log.emit(
                "campaign.shard", "given up on after retries",
                level="error", shard_id="wind_sensor:0000", attempts=3,
            )


class TestLevels:
    def test_threshold_drops_quieter_events(self):
        buffer = EventBuffer()
        log = EventLog(level="warn", sinks=(buffer,))
        assert log.emit("a", level="debug") is None
        assert log.emit("b", level="info") is None
        assert log.emit("c", level="warn") is not None
        assert log.emit("d", level="error") is not None
        assert [r["name"] for r in buffer.records] == ["c", "d"]

    def test_enabled_for_matches_emit(self):
        log = EventLog(level="info")
        assert not log.enabled_for("debug")
        assert log.enabled_for("info")
        assert log.enabled_for("error")

    def test_unknown_level_raises(self):
        with pytest.raises(EventError, match="unknown event level"):
            EventLog(level="verbose")
        with pytest.raises(EventError, match="unknown event level"):
            EventLog().emit("x", level="loud")
        with pytest.raises(EventError, match="unknown event level"):
            level_rank("trace")

    def test_seq_not_consumed_by_dropped_events(self):
        buffer = EventBuffer()
        log = EventLog(level="info", sinks=(buffer,))
        log.emit("dropped", level="debug")
        record = log.emit("kept")
        assert record["seq"] == 1


class TestSampling:
    def test_counter_based_keep_one_in_n(self):
        buffer = EventBuffer()
        log = EventLog(
            level="debug", sinks=(buffer,), sample={"tick": 3}
        )
        for index in range(9):
            log.emit("tick", index=index)
        kept = [r["attrs"]["index"] for r in buffer.records]
        assert kept == [0, 3, 6]  # deterministic, not random

    def test_sampling_is_per_name(self):
        buffer = EventBuffer()
        log = EventLog(
            level="debug", sinks=(buffer,), sample={"noisy": 2}
        )
        for _ in range(4):
            log.emit("noisy")
            log.emit("quiet")
        names = [r["name"] for r in buffer.records]
        assert names.count("noisy") == 2
        assert names.count("quiet") == 4

    def test_invalid_sample_interval_rejected(self):
        with pytest.raises(EventError, match="positive"):
            EventLog(sample={"x": 0})
        with pytest.raises(EventError, match="positive"):
            EventLog(sample={"x": "often"})


class TestCorrelation:
    def test_event_carries_active_span_ids(self):
        tracer = Tracer()
        log = EventLog()
        with installed(tracer=tracer):
            outside = log.emit("outside")
            with tracer.span("work") as span:
                inside = log.emit("inside")
        assert outside["trace_id"] is None
        assert outside["span_id"] is None
        assert inside["trace_id"] == span.trace_id
        assert inside["span_id"] == span.span_id

    def test_filter_by_span(self):
        tracer = Tracer()
        log = EventLog()
        records = []
        with installed(tracer=tracer):
            with tracer.span("a") as span_a:
                records.append(log.emit("one"))
            with tracer.span("b"):
                records.append(log.emit("two"))
        picked = filter_events(records, span_id=span_a.span_id)
        assert [r["name"] for r in picked] == ["one"]


class TestInstallation:
    def test_default_is_null_log(self):
        log = instruments().event_log
        assert isinstance(log, NullEventLog)
        assert not log.enabled
        assert log.emit("anything", level="error") is None

    def test_set_and_restore(self):
        log = EventLog()
        with installed(event_log=log):
            assert instruments().event_log is log
            with installed(event_log=None):
                assert isinstance(instruments().event_log, NullEventLog)
            assert instruments().event_log is log
        assert isinstance(instruments().event_log, NullEventLog)

    def test_installed_event_log_scopes(self):
        with installed(event_log=EventLog()) as context:
            assert instruments().event_log is context.event_log
            assert context.event_log.enabled
        assert isinstance(instruments().event_log, NullEventLog)

    def test_disabled_emit_overhead_is_negligible(self):
        """Acceptance: instrumented hot paths (the runtime event loop)
        pay ~nothing when events are off — same bound as the no-op
        tracer's."""
        assert isinstance(instruments().event_log, NullEventLog)
        start = time.perf_counter()
        for _ in range(100_000):
            log = instruments().event_log
            if log.enabled and log.enabled_for("debug"):
                raise AssertionError("null log claims to be enabled")
            log.emit("hot", iteration=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"100k no-op emits took {elapsed:.3f}s"


class TestEventBuffer:
    def test_keeps_last_n(self):
        buffer = EventBuffer(capacity=2)
        log = EventLog(sinks=(buffer,))
        for name in ("a", "b", "c"):
            log.emit(name)
        assert [r["name"] for r in buffer.records] == ["b", "c"]

    def test_clear(self):
        buffer = EventBuffer()
        EventLog(sinks=(buffer,)).emit("x")
        buffer.clear()
        assert buffer.records == []


class TestLoggingBridge:
    def test_forwards_to_stdlib_logging(self, caplog):
        log = EventLog(sinks=(LoggingBridge(),))
        with caplog.at_level(logging.INFO, logger="repro"):
            log.emit("trial.recovered", "re-converged", site=7, samples=2)
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert record.name == "repro.trial.recovered"
        assert record.levelno == logging.INFO
        assert "re-converged" in record.message
        assert "samples=2 site=7" in record.message  # sorted attrs

    def test_level_mapping(self, caplog):
        log = EventLog(level="debug", sinks=(LoggingBridge(),))
        with caplog.at_level(logging.DEBUG, logger="repro"):
            log.emit("a", level="debug")
            log.emit("b", level="warn")
            log.emit("c", level="error")
        assert [r.levelno for r in caplog.records] == [
            logging.DEBUG, logging.WARNING, logging.ERROR,
        ]

    def test_disabled_logger_costs_no_formatting(self, caplog):
        # below the logger's effective level nothing is rendered
        log = EventLog(sinks=(LoggingBridge(),))
        with caplog.at_level(logging.ERROR, logger="repro"):
            log.emit("quiet", "dropped", level="info")
        assert caplog.records == []


class TestJsonlRoundTrip:
    def test_write_read_validate(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_reference_events(path)
        records = EVENT_SPEC.read_lines(path, required=True)
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        for record in records:
            EVENT_SPEC.validate(record)
            assert record["schema"] == EVENTS_SCHEMA

    def test_golden_events_are_byte_stable(self, tmp_path):
        """Pins the JSONL envelope documented in docs/OBSERVABILITY.md:
        key set, key order, value encoding, sampling behavior."""
        path = tmp_path / "events.jsonl"
        _write_reference_events(path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_sampled_stream_kept_every_other_iteration(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_reference_events(path)
        iterations = [
            r["attrs"]["iteration"] for r in EVENT_SPEC.read_lines(path)
            if r["name"] == "runtime.iteration"
        ]
        assert iterations == [0, 2]

    def test_empty_stream_rejected_by_validate(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(EventError, match="no event records"):
            EVENT_SPEC.read_lines(path, required=True)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": EVENTS_SCHEMA}) + "\n")
        with pytest.raises(EventError, match="missing keys"):
            EVENT_SPEC.read_lines(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        _write_reference_events(path)
        records = EVENT_SPEC.read_lines(path)
        records[0]["schema"] = 999
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(EventError, match="unsupported events schema"):
            EVENT_SPEC.read_lines(path)

    def test_concurrent_emits_never_interleave_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventWriter(path) as writer:
            log = EventLog(sinks=(writer,))

            def work():
                for _ in range(50):
                    log.emit("w", payload="x" * 200)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        records = EVENT_SPEC.read_lines(path)  # raises if any line is torn
        assert len(records) == 200
        assert sorted(r["seq"] for r in records) == list(range(1, 201))


class TestFilterAndFormat:
    def _records(self):
        buffer = EventBuffer()
        log = EventLog(level="debug", sinks=(buffer,), clock=lambda: 1.5)
        log.emit("runtime.iteration", level="debug", iteration=0)
        log.emit("trial.corrupted", level="info", site=4)
        log.emit("trial.diverged", "never recovered", level="error", site=4)
        return buffer.records

    def test_min_level_floor(self):
        records = self._records()
        assert [r["name"] for r in filter_events(records, min_level="info")] \
            == ["trial.corrupted", "trial.diverged"]

    def test_name_substring(self):
        records = self._records()
        assert [r["name"] for r in filter_events(records, name="trial.")] \
            == ["trial.corrupted", "trial.diverged"]

    def test_tail_applied_after_filters(self):
        records = self._records()
        picked = filter_events(records, min_level="info", tail=1)
        assert [r["name"] for r in picked] == ["trial.diverged"]

    def test_format_event_is_deterministic(self):
        records = self._records()
        line = format_event(records[2])
        assert line == format_event(records[2])
        assert "error" in line
        assert "trial.diverged" in line
        assert "never recovered" in line
        assert "site=4" in line


class TestFollowEvents:
    """`repro events FILE --follow`: a polling tail that tolerates
    in-flight writes and refuses corrupt complete lines."""

    @staticmethod
    def _record(seq: int, name: str = "trial.corrupted") -> dict:
        return {
            "schema": EVENTS_SCHEMA, "event": "log", "seq": seq,
            "time_seconds": float(seq), "level": "info", "name": name,
            "message": "", "trace_id": None, "span_id": None, "attrs": {},
        }

    @classmethod
    def _line(cls, seq: int, **kwargs) -> bytes:
        return (json.dumps(cls._record(seq, **kwargs)) + "\n").encode()

    def _drive(self, path, script):
        """Run follow_events with an injected sleep that executes one
        step of `script` per idle poll, stopping when it runs dry."""
        from repro.obs import follow_events

        steps = iter(script)
        done = []

        def sleep(_seconds):
            step = next(steps, None)
            if step is None:
                done.append(True)
            else:
                step()

        return list(
            follow_events(
                path, sleep=sleep, stop=lambda: bool(done),
                poll_seconds=0.0,
            )
        )

    def test_streams_appended_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(self._line(1))
        script = [
            lambda: path.open("ab").write(self._line(2)),
            lambda: path.open("ab").write(self._line(3)),
        ]
        records = self._drive(path, script)
        assert [r["seq"] for r in records] == [1, 2, 3]

    def test_waits_for_a_file_that_does_not_exist_yet(self, tmp_path):
        path = tmp_path / "later.jsonl"
        script = [lambda: path.write_bytes(self._line(1))]
        records = self._drive(path, script)
        assert [r["seq"] for r in records] == [1]

    def test_truncated_final_line_buffers_until_complete(self, tmp_path):
        """An in-flight os.write (no newline yet) must not be parsed
        half-done — the tail buffers it until the rest lands."""
        path = tmp_path / "events.jsonl"
        whole = self._line(1)
        path.write_bytes(whole[:10])
        script = [lambda: path.open("ab").write(whole[10:])]
        records = self._drive(path, script)
        assert [r["seq"] for r in records] == [1]

    def test_complete_corrupt_line_raises(self, tmp_path):
        from repro.obs import follow_events

        path = tmp_path / "events.jsonl"
        path.write_bytes(b"{torn but newline-terminated\n")
        with pytest.raises(EventError, match="complete line"):
            next(follow_events(path, sleep=lambda _s: None))

    def test_invalid_envelope_on_complete_line_raises(self, tmp_path):
        from repro.obs import follow_events

        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"schema": 1}\n')
        with pytest.raises(EventError, match="missing keys"):
            next(follow_events(path, sleep=lambda _s: None))

    def test_stop_ends_iteration_cleanly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(self._line(1))
        records = self._drive(path, [])  # stop on the first idle poll
        assert [r["seq"] for r in records] == [1]
