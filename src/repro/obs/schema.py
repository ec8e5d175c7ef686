"""Declarative payload schemas: field specs plus one validator.

Every schema-versioned document the stack writes or reads — bench,
profile and resources payloads, event records, trace span events, and
the service protocol's check/campaign/bench envelopes — is described by
a :class:`Spec`: a tree of field kinds plus a few cross-field checks,
and the error class its failures raise.  One walker validates them all,
and one read/dump/write path moves them to and from disk.

A failure message names the field path, then what was wrong::

    gc.collections must be a non-negative int
    samples[0].stack[1] must be a non-empty string
    cache 'disk'.entries must be a non-negative int
    fingerprint missing keys ['python']
    scenarios[2]: repetitions must equal len(samples_seconds)

Objects are open: keys a spec does not name are allowed, so additive
schema changes never break older readers.  The int and number kinds
reject JSON booleans (``isinstance(True, int)`` holds in Python).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Callable, Iterable, Optional

class TraceWarning(UserWarning):
    """A recoverable defect in a JSONL stream (e.g. a truncated final
    line left behind by a crashed writer) that the reader skipped."""


class Kind:
    """One rule for a JSON value: ``test`` accepts it, or the value at
    ``path`` is reported as not being ``describe`` (``message``, when
    given, is a format string over ``path`` and ``value`` instead)."""

    optional = False

    def __init__(
        self,
        describe: str,
        test: Callable[[object], bool],
        *,
        message: Optional[str] = None,
    ) -> None:
        self.describe = describe
        self.test = test
        self.message = message

    def check(self, value, path: str, error: type) -> None:
        if not self.test(value):
            if self.message is not None:
                raise error(self.message.format(path=path, value=value))
            raise error(f"{path} must be {self.describe}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


ANY = Kind("any value", lambda value: True)
BOOL = Kind("a bool", lambda value: isinstance(value, bool))
STR = Kind("a string", lambda value: isinstance(value, str))
NAME = Kind(
    "a non-empty string", lambda value: isinstance(value, str) and bool(value)
)
INT = Kind("an int", _is_int)
NONNEG_INT = Kind(
    "a non-negative int", lambda value: _is_int(value) and value >= 0
)
POS_INT = Kind("a positive int", lambda value: _is_int(value) and value >= 1)
NUMBER = Kind("a number", _is_number)
NONNEG_NUMBER = Kind(
    "a non-negative number", lambda value: _is_number(value) and value >= 0
)
RATE = Kind(
    "a rate in [0, 1]", lambda value: _is_number(value) and 0 <= value <= 1
)
OBJECT = Kind("an object", lambda value: isinstance(value, dict))


def nullable(kind: Kind) -> Kind:
    """``kind`` or JSON ``null``; the key itself is still required."""
    return Kind(
        f"{kind.describe} or null",
        lambda value: value is None or kind.test(value),
    )


def one_of(values: Iterable) -> Kind:
    values = tuple(values)
    return Kind(f"one of {values}", lambda value: value in values)


def const(expected, message: str) -> Kind:
    """Exactly ``expected`` (same JSON type, so ``true`` is not ``1``);
    ``message`` formats the offending ``value``."""
    return Kind(
        repr(expected),
        lambda value: type(value) is type(expected) and value == expected,
        message=message,
    )


def schema_version(noun: str, version: int) -> Kind:
    """The ``schema`` field of a versioned obs document."""
    return const(
        version, f"unsupported {noun} schema {{value!r}} (speaking {version})"
    )


class Maybe(Kind):
    """A key that may be absent or ``null``; otherwise ``kind``."""

    optional = True

    def __init__(self, kind: Kind) -> None:
        self.kind = kind

    def check(self, value, path: str, error: type) -> None:
        if value is not None:
            self.kind.check(value, path, error)


class ListOf(Kind):
    """A list of ``item`` values.  With ``key``, every item must be an
    object carrying a string under that key: rows named by it."""

    def __init__(
        self, item: Kind, *, nonempty: bool = False, key: Optional[str] = None
    ) -> None:
        self.item = item
        self.nonempty = nonempty
        self.key = key
        self.describe = "a non-empty list" if nonempty else "a list"

    def check(self, value, path: str, error: type) -> None:
        if not isinstance(value, list) or (self.nonempty and not value):
            raise error(f"{path} must be {self.describe}")
        for index, item in enumerate(value):
            where = f"{path}[{index}]"
            if self.key is not None and not (
                isinstance(item, dict) and isinstance(item.get(self.key), str)
            ):
                raise error(f"{where} needs a {self.key}")
            self.item.check(item, where, error)


class MapOf(Kind):
    """An object mapping string keys to ``item`` values.  With a
    ``label`` an entry's path reads ``<label> '<key>'``."""

    def __init__(self, item: Kind, *, label: Optional[str] = None) -> None:
        self.item = item
        self.label = label

    def check(self, value, path: str, error: type) -> None:
        if not isinstance(value, dict):
            raise error(f"{path} must be an object")
        for key, item in value.items():
            if not isinstance(key, str):
                raise error(f"{path} keys must be strings, got {key!r}")
            where = (
                f"{self.label} {key!r}" if self.label else f"{path}[{key!r}]"
            )
            self.item.check(item, where, error)


class Obj(Kind):
    """An object with named fields (checked in order) and cross-field
    ``checks``: functions of the object returning a problem string, or
    ``None`` when the rule holds."""

    describe = "an object"
    what = "object"

    def __init__(self, fields: dict[str, Kind], checks: tuple = ()) -> None:
        self.fields = fields
        self.checks = tuple(checks)

    def check(self, value, path: str, error: type) -> None:
        where = path or self.what
        if not isinstance(value, dict):
            raise error(f"{where} must be {self.describe}")
        missing = [
            name for name, kind in self.fields.items()
            if not kind.optional and name not in value
        ]
        if missing:
            raise error(f"{where} missing keys {missing}")
        for name, kind in self.fields.items():
            if name in value:
                field_path = f"{path}.{name}" if path else name
                kind.check(value[name], field_path, error)
        for check in self.checks:
            problem = check(value)
            if problem is not None:
                raise error(f"{path}: {problem}" if path else problem)


class Spec(Obj):
    """A top-level document: an :class:`Obj` that knows what it is
    called (``what``), the error class its failures raise, and — for
    JSONL streams — how to report a file holding no records."""

    describe = "a JSON object"

    def __init__(
        self,
        what: str,
        error: type,
        fields: dict[str, Kind],
        checks: tuple = (),
        *,
        file_prefix: Optional[str] = None,
        empty: Optional[str] = None,
        stream_check: Optional[Callable[[str, list], None]] = None,
    ) -> None:
        super().__init__(fields, checks)
        self.what = what
        self.error = error
        self.file_prefix = file_prefix
        self.empty = empty
        self.stream_check = stream_check

    def validate(self, payload):
        """Raise :attr:`error` unless ``payload`` matches; returns it."""
        self.check(payload, "", self.error)
        return payload

    # -- JSON documents --------------------------------------------------

    def read(self, path: str | Path) -> dict:
        """Parse and validate one JSON document file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise self.error(f"{path}: invalid JSON: {exc}") from exc
        try:
            return self.validate(payload)
        except self.error as exc:
            raise self.error(f"{path}: {exc}") from exc

    @staticmethod
    def dumps(payload: dict) -> str:
        """The on-disk form: indented, key-sorted, newline-terminated."""
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, payload: dict, path: str | Path | None = None) -> Path:
        """Write ``payload`` to ``path``, defaulting to
        ``<file_prefix>_<UTCSTAMP>.json`` in the current directory (the
        perf-trajectory naming convention)."""
        if path is None:
            stamp = payload["created_utc"].replace("-", "").replace(":", "")
            path = Path.cwd() / f"{self.file_prefix}_{stamp}.json"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps(payload), encoding="utf-8")
        return path

    # -- JSONL streams ---------------------------------------------------

    def read_lines(
        self, path: str | Path, *, required: bool = False
    ) -> list[dict]:
        """Parse a JSONL stream, validating every record.

        A final line with no trailing newline is the signature of a
        writer killed mid-``os.write``; if that line fails to parse or
        validate it is *skipped* with a :class:`TraceWarning` instead of
        poisoning the whole file.  A defect on a newline-terminated line
        still raises: that was a complete write, so corruption there is
        real.  With ``required`` the stream must hold at least one
        record, and the spec's ``stream_check`` runs over it — the form
        CI runs over its trace and event artifacts.
        """
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        records: list[dict] = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                records.append(self.validate(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                detail = (
                    f"invalid JSON: {exc}"
                    if isinstance(exc, json.JSONDecodeError) else str(exc)
                )
                if number < len(lines) or text.endswith("\n"):
                    raise self.error(f"{path}:{number}: {detail}") from exc
                warnings.warn(
                    f"{path}:{number}: skipping truncated final line "
                    f"(crashed writer?): {detail}",
                    TraceWarning,
                    stacklevel=2,
                )
        if required:
            if not records:
                raise self.error(f"{path}: {self.empty}")
            if self.stream_check is not None:
                self.stream_check(str(path), records)
        return records
