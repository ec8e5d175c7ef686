"""The one installed instrumentation context.

Instrumented code reports to five planes — tracer, event log, sampling
profiler, resource monitor and chaos injector — held in one
process-wide :class:`Instruments` value read with :func:`instruments`.
Each field defaults to a no-op null object, so a hot path costs a
function call and an attribute lookup while its plane is off.
:func:`installed` swaps fields in for a block, and
:meth:`Instruments.section` labels a hot anchor for the profiler and
the resource monitor at once (it opens no span, so trace goldens keep
their span names).  The value is process-wide, not thread-local: the
daemon installs its tracer and event log once for every handler thread.

The null objects live here, not beside their live counterparts, so this
module imports nothing else from ``repro`` and no plane (the chaos
injector imports :mod:`repro.obs`) can form an import cycle through it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple, Optional


class _NullSection:
    """The shared do-nothing context manager null planes hand out —
    one attribute lookup plus one call on the hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SECTION = _NullSection()


class _NullSpan(_NullSection):
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    name = "<null>"
    attrs: dict = {}
    counters: dict = {}
    children: list = []
    duration_seconds = None
    cpu_seconds = None
    closed = False
    is_root = False
    remote_parent = None

    def set_attr(self, name: str, value) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def child_seconds(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span()`` is a shared no-op context manager.

    Kept deliberately trivial — this object sits on every hot path in
    the checker, the inference engine and the injection backends.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def attached(self, context) -> _NullSpan:
        # The shared null span doubles as a no-op context manager, so
        # attaching a remote context with tracing off costs one call.
        return _NULL_SPAN


class NullEventLog:
    """The disabled event log: ``emit`` does nothing.  Kept trivial —
    this object sits inside the runtime's event loop."""

    enabled = False

    def enabled_for(self, level: str) -> bool:
        return False

    def emit(
        self, name: str, message: str = "", *, level: str = "info", **attrs
    ) -> None:
        return None


class NullProfiler:
    """The disabled profiler: ``section()`` is the shared no-op context
    manager.  The anchors sit in the interpreter's event loop, the
    checker, and the inference fixpoint."""

    enabled = False

    def section(self, name: str) -> _NullSection:
        return _NULL_SECTION


class NullResourceMonitor:
    """The disabled monitor: ``section()`` is the shared no-op context
    manager, and every reading is empty."""

    enabled = False

    def section(self, name: str) -> _NullSection:
        return _NULL_SECTION

    def begin_sample(self) -> None:
        pass

    def end_sample(self) -> None:
        return None

    def gc_snapshot(self) -> dict:
        return {
            "collections": 0,
            "pause_seconds_total": 0.0,
            "collections_by_generation": {},
        }

    def sections(self) -> list:
        return []

    def watch_cache(self, name: str, supplier) -> None:
        pass

    def cache_occupancy(self) -> dict:
        return {}

    def peak_rss(self) -> None:
        return None

    def alloc_snapshot(self) -> tuple[None, None]:
        return (None, None)


class NullChaosInjector:
    """The disabled injector: every probe is a no-op.  These probes sit
    on manifest writes, cache lookups, and the daemon request path."""

    enabled = False

    def decide(self, fault: str, site: str, key: str) -> bool:
        return False

    def fire(self, fault: str, site: str, key, **attrs) -> bool:
        return False

    def crash_point(self, site: str, key) -> None:
        return None

    def hang_point(self, site: str, key) -> None:
        return None

    def slow_point(self, site: str, key) -> None:
        return None

    def corrupt_bytes(self, site: str, key, data: bytes) -> Optional[bytes]:
        return None

    def torn_write(self, site: str, key) -> Optional[str]:
        return None

    def duplicate_point(self, site: str, key) -> bool:
        return False

    def drop_point(self, site: str, key) -> bool:
        return False

    def fired(self) -> list[dict]:
        return []

    def summary(self) -> dict:
        return {"injected": 0, "by_fault": {}}

    def worker_payload(self) -> Optional[dict]:
        return None


@contextmanager
def _both_sections(profiler, monitor, name: str) -> Iterator[None]:
    with profiler.section(name), monitor.section(name):
        yield


class Instruments(NamedTuple):
    """What instrumented code reports to; every field defaults to its
    null object."""

    tracer: Any = NullTracer()
    event_log: Any = NullEventLog()
    profiler: Any = NullProfiler()
    monitor: Any = NullResourceMonitor()
    chaos: Any = NullChaosInjector()

    def section(self, name: str):
        """Label the enclosed block ``name`` for the profiler's samples
        and the monitor's allocation attribution, whichever are on."""
        if not self.monitor.enabled:
            return self.profiler.section(name)
        if not self.profiler.enabled:
            return self.monitor.section(name)
        return _both_sections(self.profiler, self.monitor, name)


_DEFAULTS = Instruments()
_lock = threading.Lock()
_current = _DEFAULTS


def instruments() -> Instruments:
    """The process-wide instrumentation context."""
    return _current


@contextmanager
def installed(**fields) -> Iterator[Instruments]:
    """Install the given fields (``tracer=``, ``event_log=``,
    ``profiler=``, ``monitor=``, ``chaos=``) for the block; ``None``
    installs the field's null object.  On exit each field is restored
    to its previous value, unless someone else has replaced it in the
    meantime."""
    new = {
        name: getattr(_DEFAULTS, name, None) if value is None else value
        for name, value in fields.items()
    }
    global _current
    with _lock:
        previous = _current
        _current = previous._replace(**new)
        value = _current
    try:
        yield value
    finally:
        with _lock:
            _current = _current._replace(**{
                name: getattr(previous, name)
                for name, mine in new.items()
                if getattr(_current, name) is mine
            })
