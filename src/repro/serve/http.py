"""The HTTP transport: a threaded HTTP/1.1 keep-alive loop over the request core.

One :class:`PslServer` (a ``socketserver.ThreadingTCPServer``, one
thread per connection) is a *thin adapter*: its handler reads the
request line and headers with bounded ``readline`` calls, keeping only
``Content-Length``, ``Connection``, ``Expect`` and
``Transfer-Encoding``; builds a :class:`~repro.serve.core.Request`;
hands it to a :class:`~repro.serve.core.RequestCore` (which owns
routing, admission, error mapping, and metrics — see
:mod:`repro.serve.core`); and writes the returned
:class:`~repro.serve.core.Response` to the socket as one buffer.  The
endpoints:

=================  ======  ===================================================
``/site``          GET     ``?host=H[&version=V]`` — one lookup
``/batch``         POST    ``{"hostnames": [...]}`` — many, snapshot-pinned
``/classify``      GET     ``?page=P&request=R`` — third-party verdict
``/compare``       GET     ``?host=H&old=V[&new=V2]`` — cross-version probe
``/versions``      GET     history + registry state (``?limit=N``)
``/swap``          POST    ``?version=V`` — atomic (fleet-wide) epoch bump
``/healthz``       GET     liveness, active version, epoch agreement
``/metrics``       GET     Prometheus text exposition
=================  ======  ===================================================

What stays transport-level here:

* **slow clients** — every accepted connection carries a per-socket
  timeout (``request_timeout``), so a slowloris-style peer that stalls
  mid-request is disconnected instead of pinning a handler thread
  forever.
* **framing** — the loop counts the body bytes the core reads and,
  after a keep-alive response, discards the declared rest (up to
  ``MAX_BODY_BYTES``, in bounded chunks), so an unread body never
  becomes the next request.  A request it cannot frame (any
  ``Transfer-Encoding``, a bad or conflicting ``Content-Length``, an
  over-long line, a malformed request line or target, a header line
  with whitespace before its colon or folded onto the line before, a
  method other than GET/POST) is answered and the connection closed;
  so is every ``>= 400`` response, since an errored request may leave
  bytes unread.
* **shutdown** — :meth:`PslServer.drain` is the graceful path: flip
  ``/healthz`` to ``draining`` (503), stop the update watcher, stop
  accepting connections, let in-flight requests finish under a bounded
  deadline, then close.  :func:`serve_forever` wires SIGTERM/SIGINT to
  it.
* **fleet sockets** — ``reuse_port=True`` binds with ``SO_REUSEPORT``
  so N worker processes share one port (the kernel load-balances
  accepts); ``listen_socket=`` adopts an already-listening inherited
  socket instead (the pre-fork parent-fd fallback where ``REUSEPORT``
  is unavailable).  See :mod:`repro.serve.fleet`.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (update -> serve)
    from repro.update.watcher import Watcher

from repro.serve.core import (
    DEFAULT_MAX_INFLIGHT,
    AdmissionGate,
    MAX_BATCH_HOSTNAMES,
    MAX_BODY_BYTES,
    Request,
    RequestCore,
    Response,
    error_body,
)
from repro.serve.engine import QueryEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshots import SnapshotRegistry

__all__ = [
    "DEFAULT_DRAIN_DEADLINE",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_REQUEST_TIMEOUT",
    "MAX_BATCH_HOSTNAMES",
    "MAX_BODY_BYTES",
    "PslServer",
    "serve_forever",
]

#: Per-connection socket timeout (seconds): how long a peer may stall
#: between bytes before the handler thread abandons the connection.
DEFAULT_REQUEST_TIMEOUT = 30.0
#: How long :meth:`PslServer.drain` waits for in-flight requests.
DEFAULT_DRAIN_DEADLINE = 10.0
#: Longest request line or header line (bytes), as ``http.server``'s.
MAX_LINE = 65536
#: Most header lines one request may carry, as ``http.client``'s.
MAX_HEADERS = 100

_FRAMING = frozenset({b"content-length", b"connection", b"expect", b"transfer-encoding"})
#: What ``bytes.strip`` removes; none of it may open or close a field name.
_SPACE = b" \t\r\n\x0b\x0c"
_STATUS_LINES = {
    status.value: b"HTTP/1.1 %d %s\r\n" % (status.value, status.phrase.encode("ascii"))
    for status in HTTPStatus
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: Largest read when discarding a body the core left unread.
_DISCARD_CHUNK = 65536


class PslServer(socketserver.ThreadingTCPServer):
    """A thread-per-connection HTTP adapter bound to one :class:`RequestCore`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        registry: SnapshotRegistry,
        *,
        engine: QueryEngine | None = None,
        metrics: MetricsRegistry | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
        quiet: bool = True,
        core: RequestCore | None = None,
        reuse_port: bool = False,
        listen_socket: socket.socket | None = None,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive when set")
        # ``server_bind`` runs inside ``super().__init__`` — the flag
        # must exist before the socket binds.
        self._reuse_port = reuse_port
        if core is None:
            core = RequestCore(
                registry,
                engine=engine,
                metrics=metrics,
                max_inflight=max_inflight,
            )
        self.core = core
        super().__init__(address, _Handler, bind_and_activate=listen_socket is None)
        if listen_socket is not None:
            # Pre-fork parent-fd mode: adopt the already-listening
            # socket the supervisor bound before forking; every worker
            # accepts on the same fd and the kernel distributes.  Each
            # connection wakes every worker's selector but only one
            # accept wins: non-blocking, the losers' accept fails and
            # returns to the loop instead of parking in accept(), where
            # shutdown() would wait on them forever.
            listen_socket.setblocking(False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
        self.registry = core.registry
        self.request_timeout = request_timeout
        self.quiet = quiet
        self._drained = False
        self._drain_ok = True
        self._date = (0, b"")  # (second, its Date header line), swapped whole

    def server_bind(self) -> None:
        # Set by hand: ``allow_reuse_port`` needs Python 3.11.
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - platform
                raise OSError("SO_REUSEPORT is not available on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def _date_line(self) -> bytes:
        """The ``Date`` header line, formatted once per second."""
        now, date = int(time.time()), self._date
        if date[0] != now:
            date = self._date = (now, b"Date: %s\r\n" % formatdate(now, usegmt=True).encode())
        return date[1]

    # -- the core's surface, re-exposed for callers and tests ----------------

    @property
    def engine(self) -> QueryEngine:
        return self.core.engine

    @property
    def gate(self) -> AdmissionGate:
        return self.core.gate

    @property
    def watcher(self) -> "Watcher | None":
        return self.core.watcher

    @property
    def inflight(self) -> int:
        return self.core.inflight

    def attach_watcher(self, watcher: "Watcher") -> None:
        """Bind an update watcher (SLO gauges + ``/healthz`` block)."""
        self.core.attach_watcher(watcher)

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun; ``/healthz`` reports it."""
        return self.core.draining

    def drain(self, *, deadline: float = DEFAULT_DRAIN_DEADLINE) -> bool:
        """Shut down gracefully; returns True when fully drained.

        The sequence an operator's SIGTERM should trigger: flip
        ``/healthz`` to ``draining`` (load balancers stop routing),
        signal the watcher loop to exit, stop accepting connections,
        wait up to ``deadline`` seconds for in-flight requests to
        finish, join the watcher, close the listening socket.
        Idempotent — repeated calls return the first outcome.

        Must not be called from a handler thread or the thread running
        :meth:`serve_forever` (``shutdown`` would deadlock); signal
        handlers should set an event and drain from the main thread,
        which is exactly what :func:`serve_forever` does.
        """
        if self._drained:
            return self._drain_ok
        self.core.draining = True
        watcher = self.core.watcher
        if watcher is not None:
            watcher.request_stop()  # non-blocking; join after the drain wait
        self.shutdown()  # stop the accept loop (serve_forever returns)
        limit = time.monotonic() + max(0.0, deadline)
        while self.core.inflight and time.monotonic() < limit:
            time.sleep(0.01)
        drained = self.core.inflight == 0
        if watcher is not None:
            remaining = max(0.5, limit - time.monotonic())
            drained = watcher.stop(timeout=remaining) and drained
        self.server_close()
        self._drained = True
        self._drain_ok = drained
        return drained

    @property
    def url(self) -> str:
        """Base URL of the bound socket (useful with an ephemeral port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(socketserver.StreamRequestHandler):
    """One connection: bounded parse, ``core.handle``, one write, repeat."""

    # One write per response leaves Nagle nothing to coalesce; TCP_NODELAY
    # stays for the ``100 Continue`` interim, which would otherwise wait
    # out the peer's delayed ACK (~40 ms) before the body arrives.
    disable_nagle_algorithm = True
    server: PslServer  # narrowed for the attribute accesses below

    def setup(self) -> None:
        # Per-connection socket timeout: StreamRequestHandler applies
        # ``self.timeout`` to the connection, and ``handle`` treats a
        # timeout as a fatal connection error — so a stalled
        # (slowloris-style) client is disconnected instead of holding
        # its handler thread forever.
        if self.server.request_timeout is not None:
            self.timeout = self.server.request_timeout
        super().setup()

    def handle(self) -> None:
        with contextlib.suppress(OSError):  # a timeout, reset or broken pipe ends it
            while self._exchange():
                pass

    def _exchange(self) -> bool:
        """Serve one request; True while the connection stays open."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: skip blank lines first
            line = rfile.readline(MAX_LINE + 1)
        if not line:
            return False  # the peer closed between requests
        if len(line) > MAX_LINE:
            return self._refuse(414, "request_line_too_long", limit_bytes=MAX_LINE)
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
            return self._refuse(400, "malformed_request_line")
        method, target, version = parts
        fields: dict[bytes, list[bytes]] = {}
        for count in range(MAX_HEADERS + 1):
            line = rfile.readline(MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return False  # the peer closed mid-request
            if len(line) > MAX_LINE or count == MAX_HEADERS:
                return self._refuse(431, "headers_too_large", limit_lines=MAX_HEADERS)
            name, colon, value = line.partition(b":")
            # RFC 9112 §5.1/§5.2: whitespace before the colon, or a line
            # opening with SP/HT (obs-fold), is refused, never trimmed: a
            # proxy may read such a line differently, and where the body
            # ends must not be in doubt.  (``b"" in _SPACE`` holds, so an
            # empty name is refused too.)
            if not colon or name[:1] in _SPACE or name[-1:] in _SPACE:
                return self._refuse(400, "malformed_header")
            name = name.lower()
            if name in _FRAMING:
                fields.setdefault(name, []).append(value.strip())
        if method not in (b"GET", b"POST"):
            return self._refuse(501, "method_not_implemented", method=method.decode("latin-1"))
        if b"transfer-encoding" in fields:
            return self._refuse(501, "unsupported_transfer_encoding")
        lengths = set(fields.get(b"content-length", (b"0",)))
        declared = lengths.pop()
        if lengths:
            return self._refuse(400, "invalid_content_length", detail="conflicting values")
        tokens = {t.strip() for t in b",".join(fields.get(b"connection", ())).lower().split(b",")}
        http10 = version == b"HTTP/1.0"
        keep = b"keep-alive" in tokens if http10 else b"close" not in tokens
        if declared.isdigit():
            length = int(declared)
        elif declared[:1] == b"-" and declared[1:].isdigit():
            # Negative: the core sees no body, as it always has; where
            # the peer's body ends is unknown, so the connection closes.
            length, keep = 0, False
        else:
            return self._refuse(400, "invalid_content_length", value=declared.decode("latin-1"))
        interim = length > 0 and not http10 and any(
            value.lower() == b"100-continue" for value in fields.get(b"expect", ())
        )
        remaining = length

        def read(size: int) -> bytes:
            nonlocal interim, remaining
            if interim:
                self.connection.sendall(_CONTINUE)
                interim = False
            data = rfile.read(min(size, remaining))
            remaining -= len(data)
            return data

        try:
            request = Request(method.decode("ascii"), target.decode("latin-1"), length, read)
        except ValueError:  # a target urlsplit cannot split
            return self._refuse(400, "malformed_request_target")
        response = self.server.core.handle(request)
        if not self.server.quiet:  # pragma: no cover - debug aid
            request_line = b" ".join(parts).decode("latin-1")
            print(f'{self.client_address[0]} "{request_line}" {response.status}', file=sys.stderr)
        # A body the core left unread is discarded after the reply — unless
        # the peer still awaits ``100 Continue`` (it may never send it) or
        # it is past the body ceiling; then the connection closes instead.
        keep = keep and not (remaining and (interim or remaining > MAX_BODY_BYTES))
        if not self._reply(response, keep, http10):
            return False
        while remaining:  # in bounded chunks: a connection holds at most one
            if not read(_DISCARD_CHUNK):
                return False  # the peer closed mid-body
        return True

    def _reply(self, response: Response, keep: bool, http10: bool = False) -> bool:
        """Write ``response`` as one buffer; True if the connection stays open."""
        payload = response.encoded()
        keep = keep and response.status < 400  # an errored request may leave bytes unread
        connection = b"" if keep and not http10 else (
            b"Connection: keep-alive\r\n" if keep else b"Connection: close\r\n"
        )
        self.connection.sendall(b"%s%sContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n%s" % (
            _STATUS_LINES[response.status], self.server._date_line(),
            response.content_type.encode(), len(payload), connection, payload,
        ))
        return keep

    def _refuse(self, status: int, kind: str, **detail: Any) -> bool:
        """Answer a request the loop cannot frame, and close."""
        return self._reply(Response(status, error_body(kind, **detail)), keep=False)


def serve_forever(
    server: PslServer,
    *,
    handle_signals: bool = True,
    drain_deadline: float = DEFAULT_DRAIN_DEADLINE,
    stop_event: threading.Event | None = None,
) -> bool:
    """Run until SIGTERM/SIGINT, then drain gracefully.

    The CLI's blocking loop: the accept loop runs on a daemon thread
    while the calling (main) thread waits for a stop signal, then runs
    :meth:`PslServer.drain` — signal handlers themselves only set an
    event, since calling ``shutdown`` from the serving thread would
    deadlock.  Returns the drain verdict (True = fully drained).

    ``handle_signals=False`` restores the plain blocking behaviour for
    callers that manage the lifecycle themselves (tests, embedding).
    ``stop_event`` lets a caller that installed its own early signal
    handler (a forked fleet worker, covering the window before this
    function replaces it) share the event — a signal delivered at any
    point between the caller's handler install and here is not lost.
    """
    if not handle_signals:
        try:
            server.serve_forever()
        finally:
            server.server_close()
        return True

    stop = stop_event if stop_event is not None else threading.Event()

    def request_stop(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        stop.set()

    previous: dict[int, Any] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        while not stop.wait(0.2):
            pass
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    drained = server.drain(deadline=drain_deadline)
    thread.join(timeout=5)
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover
            pass
    return drained
