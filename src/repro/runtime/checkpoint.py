"""Iteration-boundary snapshots of a running program, for checkpointed
injection trials.

A clean reference run saves one :class:`Snapshot` at the top of every
event-loop pass.  An injected trial restores the snapshot just before
its target site, runs the armed iteration, and stops at the first later
boundary whose state equals the reference's snapshot there — from that
point on the run *is* the reference run, because execution is
deterministic and inputs are keyed by iteration
(:class:`~repro.runtime.devices.IterationKeyedDevice`).

The state of a boundary is the event-loop method's frame (``this`` and
its locals), the heap reachable from it, the statics, the set of
initialised classes and the device's per-iteration read cursors.  It is
held as a flat tuple of tokens from one deterministic depth-first walk:

* ints and strings stand for themselves, ``None`` for null;
* a float is its 8 IEEE bytes, so ``-0.0`` and ``0.0`` differ and a NaN
  equals only the same NaN;
* a boolean is one of two sentinels, so ``True`` never equals ``1``;
* the first visit of an object, array or buffer is a marker tuple
  (kind, shape, element encoding) followed by its contents; every later
  visit is ``(REF, n)``, the n-th reference visited — aliasing is part
  of the state.

Two states are equal exactly when their token tuples are, and the tokens
suffice to rebuild the heap (:func:`decode`), so the snapshot is both
what a trial restores and what it compares against.  No digest is
involved: a hash collision cannot fabricate a recovery.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.runtime.interpreter import Interpreter, _Frame
from repro.runtime.values import ArrayVal, BufferVal, ObjectVal

_FLOAT = struct.Struct("<d")

#: Marker kinds.
OBJECT, ARRAY, BUFFER, REF = "object", "array", "buffer", "ref"
#: How a container's elements follow its marker: all floats packed into
#: one bytes token, all ints as one tuple token, or one token each.
PACKED_FLOATS, INTS, EACH = "f", "i", "v"


class _Bool:
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.value}>"


_TRUE, _FALSE = _Bool(True), _Bool(False)


@dataclass(frozen=True)
class Snapshot:
    """The engine at the top of event-loop pass ``iteration``."""

    iteration: int
    #: Execution steps charged so far (the watchdog meter).
    steps: int
    #: Injectable sites executed so far.
    sites: int
    #: Sink length and error-log length so far.
    outputs: int
    errors: int
    #: The device's ``reads`` meter (restored, never compared).
    reads: int
    #: The state tokens (see the module docstring).
    state: tuple


def encode(engine: Interpreter, frame: _Frame) -> tuple:
    """The state tokens of ``engine`` paused at a boundary of ``frame``."""
    variables = frame.vars
    statics = engine._statics
    names = sorted(variables)
    keys = sorted(statics)
    tokens: list = [(
        tuple(names), tuple(keys), tuple(sorted(engine._statics_ready)),
        engine.device.state(),
    )]
    stack = [statics[key] for key in reversed(keys)]
    stack += [variables[name] for name in reversed(names)]
    stack.append(frame.this)
    seen: dict[int, int] = {}
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is int or kind is str or value is None:
            tokens.append(value)
        elif kind is float:
            tokens.append(_FLOAT.pack(value))
        elif kind is bool:
            tokens.append(_TRUE if value else _FALSE)
        elif id(value) in seen:
            tokens.append((REF, seen[id(value)]))
        elif kind is ObjectVal:
            seen[id(value)] = len(seen)
            fields = value.fields
            tokens.append((OBJECT, value.class_name, tuple(fields)))
            stack.extend(reversed(list(fields.values())))
        elif kind is ArrayVal or kind is BufferVal:
            seen[id(value)] = len(seen)
            items = value.items
            types = set(map(type, items))
            container = ARRAY if kind is ArrayVal else BUFFER
            default = _primitive(value.default)
            if types == {float}:
                tokens.append((container, len(items), default, PACKED_FLOATS))
                tokens.append(struct.pack(f"<{len(items)}d", *items))
            elif types <= {int}:
                tokens.append((container, len(items), default, INTS))
                tokens.append(tuple(items))
            else:
                tokens.append((container, len(items), default, EACH))
                stack.extend(reversed(items))
        else:
            raise TypeError(f"no snapshot encoding for {kind.__name__}")
    return tuple(tokens)


def _primitive(value: object) -> object:
    kind = type(value)
    if kind is float:
        return _FLOAT.pack(value)
    if kind is bool:
        return _TRUE if value else _FALSE
    return value


def _value(token: object) -> object:
    kind = type(token)
    if kind is bytes:
        return _FLOAT.unpack(token)[0]
    if kind is _Bool:
        return token.value
    return token


def decode(tokens: tuple) -> tuple[object, dict, dict, set, tuple]:
    """Rebuild ``(this, locals, statics, initialised classes, device
    state)`` from state tokens, as fresh objects with the encoded
    aliasing."""
    names, keys, ready, device = tokens[0]
    roots: list = [None] * (1 + len(names) + len(keys))
    holes: list = [(roots, slot) for slot in reversed(range(len(roots)))]
    refs: list = []
    position = 1
    while holes:
        target, slot = holes.pop()
        token = tokens[position]
        position += 1
        if type(token) is not tuple:
            target[slot] = _value(token)
            continue
        kind = token[0]
        if kind == REF:
            target[slot] = refs[token[1]]
            continue
        if kind == OBJECT:
            value = ObjectVal(token[1], dict.fromkeys(token[2]))
            refs.append(value)
            holes.extend((value.fields, name) for name in reversed(token[2]))
        else:
            _, length, default, layout = token
            value = (ArrayVal if kind == ARRAY else BufferVal)(0, None)
            value.default = _value(default)
            refs.append(value)
            if layout == EACH:
                value.items = [None] * length
                holes.extend(
                    (value.items, i) for i in reversed(range(length))
                )
            else:
                payload = tokens[position]
                position += 1
                value.items = (
                    list(struct.unpack(f"<{length}d", payload))
                    if layout == PACKED_FLOATS else list(payload)
                )
        target[slot] = value
    this = roots[0]
    variables = dict(zip(names, roots[1:1 + len(names)]))
    statics = dict(zip(keys, roots[1 + len(names):]))
    return this, variables, statics, set(ready), device


def capture(engine: Interpreter, frame: _Frame, sites: int) -> Snapshot:
    return Snapshot(
        iteration=engine.iteration,
        steps=engine.steps,
        sites=sites,
        outputs=len(engine.sink.values),
        errors=len(engine.error_log),
        reads=engine.device.reads,
        state=encode(engine, frame),
    )


def restore(
    engine: Interpreter,
    snapshot: Snapshot,
    outputs: list,
    error_log: list,
    marks: list,
) -> _Frame:
    """Put ``engine`` (already reset for the new run) at the snapshot's
    boundary and return the event-loop frame to resume.  ``outputs``,
    ``error_log`` and ``marks`` are the reference run's, whose prefixes
    the snapshot's counts select."""
    this, variables, statics, ready, device = decode(snapshot.state)
    engine._statics = statics
    engine._statics_ready = ready
    engine.device.restore(device)
    engine.device.reads = snapshot.reads
    engine.iteration = snapshot.iteration
    engine.steps = snapshot.steps
    engine.sink.values = outputs[:snapshot.outputs]
    engine.error_log = error_log[:snapshot.errors]
    engine.iteration_marks = marks[:snapshot.iteration]
    frame = _Frame(this=this)
    frame.vars = variables
    return frame


class Rejoined(Exception):
    """Raised at the boundary where an injected run's state equals the
    reference's (the engine's ``iteration``): the rest of the run is the
    reference's."""

