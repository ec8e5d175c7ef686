"""Client for the checking daemon.

Speaks the newline-delimited JSON protocol of
:mod:`repro.service.server` over a Unix socket.  One client holds one
connection and may issue many requests; use it as a context manager::

    with ReproClient(socket_path) as client:
        response = client.check(source=text)
        assert response["self_stabilizing"]
        client.shutdown()

Connecting is hardened for real deployments: ``connect_retries``
retries with capped exponential backoff cover the daemon-still-starting
window, and a socket file whose daemon is gone (killed without cleanup)
is diagnosed as *stale* rather than surfacing a bare
``ConnectionRefusedError`` — :func:`remove_stale_socket` cleans one up.

Every operation can carry a **total deadline budget** (``op_deadline``
seconds): connect retries, backoff sleeps and the response wait all draw
from the same budget, and exhausting it raises :class:`DeadlineExceeded`
— a distinct, machine-readable error whose ``envelope`` is a protocol
``error`` payload with ``error: "deadline-exceeded"``.  With
``connect_retries=None`` the retry loop is bounded by the deadline alone
instead of an attempt count.  A connection that dies mid-request (reset,
daemon restart, injected ``socket-drop``) is retried exactly once on a
fresh connection before the error surfaces.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Callable, Optional

from repro.chaos.injector import chaos_recovery
from repro.obs.context import instruments
from repro.obs.propagate import current_context
from repro.service import protocol


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false`` (or not at all)."""


class StaleSocketError(ServiceError):
    """The socket file exists but no daemon is listening behind it."""


class DeadlineExceeded(ServiceError):
    """The operation's total deadline budget ran out.

    ``envelope`` is the protocol-shaped error payload
    (``error: "deadline-exceeded"``), so callers that forward daemon
    responses can forward this failure in the same format.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.envelope = protocol.error_payload(
            message, error="deadline-exceeded"
        )


class ConnectionDropped(ServiceError):
    """The connection died mid-request (reset, or the daemon closed
    it before responding).  :meth:`ReproClient.request` retries once on
    a fresh connection before letting this surface."""


def socket_is_live(socket_path: str | Path) -> bool:
    """True when something accepts connections on ``socket_path``."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(socket_path))
        return True
    except OSError:
        return False
    finally:
        probe.close()


def remove_stale_socket(socket_path: str | Path) -> bool:
    """Delete a socket file left behind by a killed daemon.

    Returns True when a stale file was removed; a missing file or a
    live daemon leaves the filesystem untouched and returns False.
    """
    path = Path(socket_path)
    if not path.exists() or socket_is_live(path):
        return False
    path.unlink(missing_ok=True)
    return True


class ReproClient:
    def __init__(
        self,
        socket_path: str | Path,
        timeout: float = 30.0,
        *,
        connect_retries: Optional[int] = 0,
        connect_backoff: float = 0.05,
        backoff_cap: float = 1.0,
        op_deadline: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if connect_retries is None and op_deadline is None:
            raise ValueError(
                "connect_retries=None (deadline-bounded retries) needs "
                "op_deadline set — otherwise the retry loop is unbounded"
            )
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.backoff_cap = backoff_cap
        self.op_deadline = op_deadline
        #: Injectable time sources (None: the real clock), so deadline
        #: and backoff behavior is testable without waiting.
        self.clock = clock
        self.sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._request_seq = 0

    # -- the deadline budget ---------------------------------------------

    def _now(self) -> float:
        return (self.clock or time.monotonic)()

    def _sleep(self, seconds: float) -> None:
        (self.sleep or time.sleep)(seconds)

    def _start_deadline(self) -> Optional[float]:
        """The absolute deadline of an operation starting now."""
        if self.op_deadline is None:
            return None
        return self._now() + self.op_deadline

    def _remaining(self, deadline: Optional[float], what: str) -> Optional[float]:
        """Budget left before ``deadline``; raises once it is spent."""
        if deadline is None:
            return None
        remaining = deadline - self._now()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"deadline of {self.op_deadline:.3f}s exceeded while {what} "
                f"(daemon at {self.socket_path})"
            )
        return remaining

    # -- connection ------------------------------------------------------

    def connect(self, *, deadline: Optional[float] = None) -> "ReproClient":
        if self._sock is not None:
            return self
        if deadline is None:
            deadline = self._start_deadline()
        delay = self.connect_backoff
        last_error: Optional[OSError] = None
        attempt = 0
        while True:
            remaining = self._remaining(deadline, "connecting")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(
                self.timeout if remaining is None
                else min(self.timeout, remaining)
            )
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                sock.close()
                last_error = exc
                attempt += 1
                # None: retry until the deadline budget runs out.
                if self.connect_retries is None or (
                    attempt <= self.connect_retries
                ):
                    pause = delay
                    if deadline is not None:
                        budget = self._remaining(deadline, "connecting")
                        pause = min(pause, budget)
                    self._sleep(pause)
                    delay = min(delay * 2, self.backoff_cap)
                    continue
                break
            self._sock = sock
            self._reader = sock.makefile("rb")
            return self
        assert last_error is not None
        if (
            isinstance(last_error, ConnectionRefusedError)
            and Path(self.socket_path).exists()
        ):
            raise StaleSocketError(
                f"stale socket {self.socket_path}: the file exists but no "
                f"daemon answers (a previous daemon was probably killed); "
                f"remove_stale_socket() cleans it up"
            ) from last_error
        raise ServiceError(
            f"cannot connect to daemon at {self.socket_path} "
            f"after {attempt} attempt(s): {last_error}"
        ) from last_error

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ReproClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests --------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """Send one request, wait for its one-line response.

        The whole operation — connecting (with retries), sending,
        waiting — draws from one ``op_deadline`` budget.  A connection
        that dies mid-request is retried exactly once on a fresh
        connection (recorded as a ``chaos.recovery`` event); requests
        are single-line and responses idempotent to re-ask for, so one
        replay is safe and covers both daemon restarts and injected
        ``socket-drop`` faults.

        When the caller is inside an active trace span, the request is
        stamped with a ``trace`` traceparent field so the daemon's
        ``op.*`` span joins the caller's distributed trace.  No active
        span (the common case — tracing off) leaves the payload
        untouched, byte-identical to pre-tracing clients.
        """
        if "trace" not in payload:
            context = current_context()
            if context is not None:
                payload = {**payload, "trace": context.to_traceparent()}
        deadline = self._start_deadline()
        self._request_seq += 1
        key = f"{payload.get('op', 'request')}:{self._request_seq}"
        try:
            return self._request_once(payload, deadline, key)
        except DeadlineExceeded:
            raise
        except (ConnectionDropped, ConnectionError) as exc:
            self.close()
            self._remaining(deadline, "reconnecting after a dropped request")
            chaos_recovery(
                "client-reconnected",
                "client.request",
                key=key,
                error=str(exc),
            )
            return self._request_once(payload, deadline, key)

    def _request_once(
        self, payload: dict, deadline: Optional[float], key: str
    ) -> dict:
        self.connect(deadline=deadline)
        assert self._sock is not None and self._reader is not None
        remaining = self._remaining(deadline, "sending the request")
        self._sock.settimeout(
            self.timeout if remaining is None
            else min(self.timeout, remaining)
        )
        self._sock.sendall((protocol.dumps(payload) + "\n").encode("utf-8"))
        if instruments().chaos.drop_point("client.request", key):
            # Injected connection reset mid-request: the request went
            # out but the connection dies before the response is read —
            # what a client sees when its peer resets under it.
            self.close()
            raise ConnectionDropped("injected connection drop mid-request")
        try:
            line = self._reader.readline()
        except socket.timeout as exc:
            if deadline is not None and deadline - self._now() <= 0:
                raise DeadlineExceeded(
                    f"deadline of {self.op_deadline:.3f}s exceeded while "
                    f"waiting for a response (daemon at {self.socket_path})"
                ) from exc
            raise ServiceError(
                f"timed out waiting for a response from {self.socket_path}"
            ) from exc
        if not line:
            raise ConnectionDropped("daemon closed the connection")
        response = protocol.loads(line.decode("utf-8"))
        protocol.ENVELOPE_SPEC.validate(response)
        return response

    def _checked(self, payload: dict) -> dict:
        response = self.request(payload)
        if not response.get("ok"):
            raise ServiceError(response.get("message", "request failed"))
        return response

    def check(
        self, *, source: Optional[str] = None, path: Optional[str] = None
    ) -> dict:
        return self._checked(self._locate("check", source, path))

    def infer(
        self,
        *,
        source: Optional[str] = None,
        path: Optional[str] = None,
        mode: str = "sinfer",
        verify: bool = True,
    ) -> dict:
        request = self._locate("infer", source, path)
        request["mode"] = mode
        request["verify"] = verify
        return self._checked(request)

    def status(self) -> dict:
        return self._checked({"op": "status"})

    def metrics(self, *, format: str = "json") -> dict:
        """The daemon's metrics snapshot (``format="prometheus"`` returns
        the text exposition in ``metrics_text``)."""
        return self._checked({"op": "metrics", "format": format})

    def events(
        self,
        *,
        level: Optional[str] = None,
        name: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """The daemon's recent structured events (its in-memory ring),
        filtered server-side: ``level`` is a severity floor, ``name`` a
        substring match, ``limit`` keeps only the last N."""
        request: dict = {"op": "events"}
        if level is not None:
            request["level"] = level
        if name is not None:
            request["name"] = name
        if limit is not None:
            request["limit"] = limit
        return self._checked(request)

    def shutdown(self) -> dict:
        return self._checked({"op": "shutdown"})

    @staticmethod
    def _locate(op: str, source: Optional[str], path: Optional[str]) -> dict:
        if (source is None) == (path is None):
            raise ValueError(f"{op} needs exactly one of source= or path=")
        if source is not None:
            return {"op": op, "source": source}
        return {"op": op, "path": str(path)}
