"""The HTTP transport: a stdlib threading server over the request core.

One :class:`PslServer` (a ``ThreadingHTTPServer``) is now a *thin
adapter*: it parses HTTP into a :class:`~repro.serve.core.Request`,
hands it to a :class:`~repro.serve.core.RequestCore` (which owns
routing, admission, error mapping, and metrics — see
:mod:`repro.serve.core`), and writes the returned
:class:`~repro.serve.core.Response` to the socket.  The endpoints:

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
* **connection hygiene on errors** — any errored request may have an
  unread body, so every ``>= 400`` response carries
  ``Connection: close`` (one place, :meth:`_Handler._send`).
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

import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (update -> serve)
    from repro.update.watcher import Watcher

from repro.serve.core import (
    DEFAULT_MAX_INFLIGHT,
    MAX_BATCH_HOSTNAMES,
    MAX_BODY_BYTES,
    Request,
    RequestCore,
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


class PslServer(ThreadingHTTPServer):
    """A threading HTTP adapter bound to one :class:`RequestCore`."""

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

    def server_bind(self) -> None:
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - platform
                raise OSError("SO_REUSEPORT is not available on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    # -- the core's surface, re-exposed for callers and tests ----------------

    @property
    def engine(self) -> QueryEngine:
        return self.core.engine

    @property
    def metrics(self) -> MetricsRegistry:
        return self.core.metrics

    @property
    def gate(self) -> threading.Semaphore:
        return self.core.gate

    @property
    def max_inflight(self) -> int:
        return self.core.max_inflight

    @property
    def started_at(self) -> float:
        return self.core.started_at

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


class _Handler(BaseHTTPRequestHandler):
    """Parses HTTP, delegates to the core, writes the response."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: the handler emits the status line and each header as
    # its own small write; with Nagle on, those segments wait for the
    # peer's delayed ACK (~40ms) before the body flushes — a keep-alive
    # client then sees every response cost ~44ms regardless of the
    # lookup's actual microseconds.  An answer-sized service disables
    # Nagle and pays a few extra small packets instead.
    disable_nagle_algorithm = True
    server: PslServer  # narrowed for the attribute accesses below

    def setup(self) -> None:
        # Per-connection socket timeout: StreamRequestHandler applies
        # ``self.timeout`` to the connection, and stdlib
        # ``handle_one_request`` treats a timeout as a fatal connection
        # error — so a stalled (slowloris-style) client is disconnected
        # instead of holding its handler thread forever.
        if self.server.request_timeout is not None:
            self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if status >= 400:
            # An errored request may have an unread body (e.g. a shed
            # POST); keeping the connection would desync the framing.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        try:
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-reply; nothing to salvage

    def _dispatch(self, method: str) -> None:
        try:
            # Clamp negatives: self.rfile.read(-1) would read until EOF,
            # defeating the core's body-size ceiling.
            length = max(0, int(self.headers.get("Content-Length") or 0))
        except ValueError:
            length = 0
        response = self.server.core.handle(
            Request(
                method=method,
                target=self.path,
                content_length=length,
                read=self.rfile.read,
            )
        )
        self._send(response.status, response.encoded(), response.content_type)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        self._dispatch("POST")


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
