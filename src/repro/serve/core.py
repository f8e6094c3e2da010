"""The transport-agnostic request core of the serving tier.

Everything the HTTP layer used to decide — routing, parameter and body
validation, admission control, error mapping, metrics recording — now
lives in :class:`RequestCore`, which knows nothing about sockets.  A
transport (the threaded :class:`~repro.serve.http.PslServer`, a test
driving :meth:`RequestCore.handle` directly, or every worker of a
pre-fork fleet) parses bytes into a :class:`Request`, hands it to the
core, and writes the returned :class:`Response` back out.  That split
is what lets one request pipeline serve three shapes of process
without forking its logic:

* one threaded server (the PR 5 shape, behavior-identical);
* N pre-fork workers over one shared snapshot buffer
  (:mod:`repro.serve.fleet`);
* no server at all — unit tests exercise the full routing and error
  surface without opening a socket.

Error responses are built in exactly one place
(:func:`error_body` / :class:`Reject`), so 400/404/405/413/500 carry
the same ``{"error": {"kind": ..., ...}}`` JSON shape on every
endpoint and every transport.

Hot-swap goes through an **epoch coordinator**: ``/swap`` asks the
coordinator, not the registry, so a single process bumps its own
registry (:class:`LocalEpochs`) while a fleet worker publishes the
swap on the shared epoch bus for every sibling to observe
(:class:`repro.serve.fleet.BusEpochs`).  ``/healthz`` reports the
coordinator's epoch — in fleet mode, per-worker epoch agreement.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import parse_qsl, urlsplit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (update -> serve)
    from repro.update.watcher import Watcher

from repro.net.errors import HostnameError
from repro.serve.engine import QueryEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry, UnknownVersionError

DEFAULT_MAX_INFLIGHT = 64
#: Request-body ceiling (bytes): a batch of ~100k hostnames fits; a
#: memory-exhaustion payload does not.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Per-request batch size ceiling; larger workloads should page.
MAX_BATCH_HOSTNAMES = 100_000

JSON_TYPE = "application/json"
METRICS_TYPE = "text/plain; version=0.0.4"


def error_body(kind: str, **detail: Any) -> dict:
    """The one structured-error shape every endpoint returns.

    ``{"error": {"kind": <machine-readable>, ...detail}}`` — the same
    JSON on a 400, 404, 405, 413, 500, or 503, so clients parse one
    shape and transports add only transport concerns (e.g. the HTTP
    adapter's ``Connection: close``).
    """
    return {"error": {"kind": kind, **detail}}


class Reject(Exception):
    """Internal control flow: abort the request with (status, error body)."""

    def __init__(self, status: int, kind: str, detail: dict | None = None) -> None:
        self.status = status
        self.body = error_body(kind, **(detail or {}))
        super().__init__(kind)


@dataclass(slots=True)
class Request:
    """One parsed-enough request, transport details already stripped.

    ``read`` is the transport's body reader (``rfile.read``-shaped);
    the core only calls it after checking ``content_length`` against
    :data:`MAX_BODY_BYTES`, so a transport never buffers an oversized
    body on the core's behalf.  The core may leave the body unread:
    the transport frames it and discards what the core did not read.
    """

    method: str
    target: str  # path plus query string, as the transport received it
    content_length: int = 0
    read: Callable[[int], bytes] = lambda n: b""
    #: The path without trailing slashes (``"/"`` for the root).
    endpoint: str = field(init=False)
    _query: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Split the target once.

        An origin-form target (``/path?query``) is partitioned at its
        first ``?``.  Anything :func:`~urllib.parse.urlsplit` would read
        differently — a ``//`` authority, an absolute URL, a ``#``
        fragment, or a tab or line break it strips — goes through
        ``urlsplit`` itself, so both routes agree; ``urlsplit`` raises
        :class:`ValueError` on a target it cannot split (an unbalanced
        ``[`` in the authority).
        """
        target = self.target
        if (
            target[:1] == "/" and target[1:2] != "/"
            and "#" not in target and target.isprintable()
        ):
            path, _, self._query = target.partition("?")
        else:
            parts = urlsplit(target)
            path, self._query = parts.path, parts.query
        self.endpoint = path.rstrip("/") or "/"

    def query(self) -> dict[str, str]:
        """The query parameters; a repeated name keeps its last value."""
        return dict(parse_qsl(self._query)) if self._query else {}


@dataclass(slots=True)
class Response:
    """What the core answers; the transport serializes it.

    A dict payload is JSON-encoded on the way out; a bytes payload is
    already the body, sent as whatever ``content_type`` states.
    """

    status: int
    payload: dict | bytes
    content_type: str = JSON_TYPE

    def encoded(self) -> bytes:
        if isinstance(self.payload, bytes):
            return self.payload
        return json.dumps(self.payload).encode("utf-8")


class AdmissionGate:
    """At most ``limit`` gated requests in flight: one lock over one count.

    :meth:`acquire` and :meth:`release` keep the non-blocking half of
    the ``threading.Semaphore`` surface, so a caller (a test filling
    the gate) can hold slots by hand; :attr:`inflight` counts every
    slot taken.
    """

    __slots__ = ("limit", "inflight", "_lock")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.inflight = 0
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = False) -> bool:
        """Take a slot if one is free; never waits."""
        if blocking:
            raise ValueError("the admission gate never blocks")
        with self._lock:
            if self.inflight >= self.limit:
                return False
            self.inflight += 1
        return True

    def release(self) -> None:
        with self._lock:
            if not self.inflight:
                raise ValueError("release without a matching acquire")
            self.inflight -= 1


class LocalEpochs:
    """Single-process epoch coordination: the registry *is* the fleet.

    The epoch is the registry generation, and a swap is a direct
    ``activate`` — exactly the PR 5 behavior, now behind the interface
    a fleet worker swaps through.
    """

    def __init__(self, registry: SnapshotRegistry) -> None:
        self._registry = registry

    def epoch(self) -> int:
        return self._registry.generation

    def swap(self, spec: object) -> tuple[PslSnapshot, int]:
        snapshot = self._registry.activate(spec)
        return snapshot, self._registry.generation

    def describe(self) -> dict:
        return {"mode": "local", "epoch": self.epoch()}


class RequestCore:
    """Routing, admission, error mapping, and metrics — no sockets.

    One core serves one registry + engine + metrics registry.  All
    transports of one process share the core, so admission control and
    counters stay process-global no matter how requests arrive.
    """

    _GET_ROUTES = {
        "/site": "_get_site",
        "/classify": "_get_classify",
        "/compare": "_get_compare",
        "/versions": "_get_versions",
        "/healthz": "_get_healthz",
        "/metrics": "_get_metrics",
    }
    _POST_ROUTES = {
        "/batch": "_post_batch",
        "/swap": "_post_swap",
    }
    #: Observability endpoints stay reachable under load shedding.
    _UNGATED = frozenset({"/healthz", "/metrics"})

    def __init__(
        self,
        registry: SnapshotRegistry,
        *,
        engine: QueryEngine | None = None,
        metrics: MetricsRegistry | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        epochs: LocalEpochs | None = None,
        worker_id: int | None = None,
        fleet_view: Callable[[], dict] | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.registry = registry
        self.engine = engine if engine is not None else QueryEngine(registry)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.gate = AdmissionGate(max_inflight)
        self.max_inflight = max_inflight
        self.epochs = epochs if epochs is not None else LocalEpochs(registry)
        self.worker_id = worker_id
        self.fleet_view = fleet_view
        self.started_at = time.time()
        self.watcher: "Watcher | None" = None
        self.draining = False
        self._install_metrics()

    # -- metrics wiring ------------------------------------------------------

    def _install_metrics(self) -> None:
        metrics = self.metrics
        self.requests_total = metrics.counter(
            "psl_serve_requests_total",
            "Requests handled, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self.rejected_total = metrics.counter(
            "psl_serve_rejected_total",
            "Requests shed by admission control (503, never processed).",
        )
        self.latency = metrics.histogram(
            "psl_serve_request_seconds",
            "Request wall time in seconds, by endpoint.",
            ("endpoint",),
        )
        self.lookups_total = metrics.counter(
            "psl_serve_hostname_lookups_total",
            "Individual hostname lookups performed (batch items count each).",
        )
        registry = self.registry
        metrics.callback_gauge(
            "psl_serve_snapshot_index",
            "History index of the active snapshot.",
            lambda: registry.active.index,
        )
        metrics.callback_gauge(
            "psl_serve_snapshot_age_days",
            "Age of the active snapshot's list version in days (staleness).",
            lambda: registry.active.age_days(),
        )
        metrics.callback_gauge(
            "psl_serve_snapshot_rules",
            "Rule count of the active snapshot.",
            lambda: registry.active.rule_count,
        )
        metrics.callback_gauge(
            "psl_serve_snapshot_swaps_total",
            "Completed hot-swaps since start.",
            lambda: registry.generation,
        )
        metrics.callback_gauge(
            "psl_serve_epoch",
            "Fleet epoch this process has applied (equals generation when local).",
            lambda: self.epochs.epoch(),
        )
        metrics.callback_gauge(
            "psl_serve_resident_snapshots",
            "Snapshots currently materialized (active + compare residents).",
            lambda: len(registry.resident_indexes()),
        )
        metrics.callback_gauge(
            "psl_serve_inflight_requests",
            "Requests currently being processed.",
            lambda: self.inflight,
        )
        metrics.callback_gauge(
            "psl_serve_resident_packed_bytes",
            "Bytes of packed snapshot buffer resident (shared sections counted once).",
            lambda: registry.memory_accounting().packed_bytes,
        )
        metrics.callback_gauge(
            "psl_serve_resident_dict_bytes",
            "Measured heap bytes of resident dict-trie snapshots.",
            lambda: registry.memory_accounting().dict_bytes,
        )
        metrics.callback_gauge(
            "psl_serve_resident_dict_bytes_estimate",
            "What every resident version would cost as a dict trie (the packed-vs-dict baseline).",
            lambda: registry.memory_accounting().dict_bytes_estimate,
        )
        metrics.multi_callback_gauge(
            "psl_serve_snapshot_packed_mmap_shared",
            "Per resident version: 1 when served from an OS-shared packed mmap, 0 otherwise.",
            ("version",),
            lambda: {
                str(row["index"]): 1.0 if row["packed_mmap_shared"] else 0.0
                for row in registry.memory_accounting().versions
            },
        )

    def attach_watcher(self, watcher: "Watcher") -> None:
        """Bind an update watcher: SLO gauges + the ``/healthz`` block.

        The staleness SLO surface (age of active version, versions
        behind upstream, consecutive failed polls, health state)
        becomes scrapeable the moment a watcher is attached; the
        transport's drain path then also owns stopping the watcher
        thread.
        """
        if self.watcher is not None:
            raise ValueError("a watcher is already attached")
        self.watcher = watcher
        metrics = self.metrics
        metrics.callback_gauge(
            "psl_serve_update_active_age_days",
            "Age in days of the active snapshot's list version (the staleness SLO).",
            lambda: watcher.status().active_age_days,
        )
        metrics.callback_gauge(
            "psl_serve_update_versions_behind",
            "Published upstream versions not yet ingested.",
            lambda: watcher.status().versions_behind,
        )
        metrics.callback_gauge(
            "psl_serve_update_failed_polls",
            "Consecutive upstream polls that failed (resets on success).",
            lambda: watcher.status().consecutive_failed_polls,
        )
        metrics.callback_gauge(
            "psl_serve_update_polls_total",
            "Upstream polls attempted since start.",
            lambda: watcher.status().polls,
        )
        metrics.callback_gauge(
            "psl_serve_update_accepted_total",
            "Versions ingested through the incremental patch path.",
            lambda: watcher.status().accepted,
        )
        metrics.callback_gauge(
            "psl_serve_update_resynced_total",
            "Versions ingested through the full-snapshot resync path.",
            lambda: watcher.status().resynced,
        )
        metrics.callback_gauge(
            "psl_serve_update_quarantined_total",
            "Upstream versions permanently skipped after failing validation.",
            lambda: watcher.status().quarantined,
        )
        from repro.update.slo import HEALTH_STATES  # local: avoid import cycle

        metrics.state_gauge(
            "psl_serve_update_health",
            "Update-loop health (one-hot): fresh, stale, or degraded.",
            HEALTH_STATES,
            lambda: watcher.status().state.value,
        )

    # -- admission -----------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self.gate.inflight

    # -- request handling ----------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route one request through admission, dispatch, and metrics.

        The full never-crash contract lives here: any exception the
        endpoint logic raises becomes a structured error response, and
        the counters are recorded *before* the response is returned to
        the transport — a scrape issued right after the final request
        of a load can never undercount.
        """
        endpoint = request.endpoint
        routes = self._GET_ROUTES if request.method == "GET" else self._POST_ROUTES
        method_name = routes.get(endpoint) if request.method in ("GET", "POST") else None
        if method_name is None:
            known = endpoint in self._GET_ROUTES or endpoint in self._POST_ROUTES
            status = 405 if known else 404
            kind = "method_not_allowed" if known else "not_found"
            detail: dict[str, Any] = {"path": endpoint}
            if known:
                detail["allowed"] = (
                    ["GET"] if endpoint in self._GET_ROUTES else ["POST"]
                )
            self.requests_total.inc(
                endpoint=endpoint if known else "<unknown>", status=str(status)
            )
            return Response(status, error_body(kind, **detail))

        gated = endpoint not in self._UNGATED
        if gated and not self.gate.acquire():
            self.rejected_total.inc()
            self.requests_total.inc(endpoint=endpoint, status="503")
            return Response(
                503, error_body("overloaded", max_inflight=self.max_inflight)
            )

        started = time.perf_counter()
        try:
            try:
                response = getattr(self, method_name)(request)
            except Reject as rejection:
                response = Response(rejection.status, rejection.body)
            except HostnameError as exc:
                response = Response(
                    400, error_body("invalid_hostname", value=exc.value, reason=exc.reason)
                )
            except UnknownVersionError as exc:
                response = Response(
                    404, error_body("unknown_version", value=str(exc.spec), reason=exc.reason)
                )
            except Exception:  # the never-crash contract
                response = Response(500, error_body("internal"))
        finally:
            if gated:
                self.gate.release()
        self.requests_total.inc(endpoint=endpoint, status=str(response.status))
        self.latency.observe(time.perf_counter() - started, endpoint=endpoint)
        return response

    # -- shared request plumbing ---------------------------------------------

    @staticmethod
    def _required(query: dict[str, str], name: str) -> str:
        value = query.get(name)
        if not value:
            raise Reject(400, "missing_parameter", {"parameter": name})
        return value

    @staticmethod
    def _read_body(request: Request) -> dict:
        """The declared body, parsed as one JSON object."""
        length = request.content_length
        # A negative length must never reach request.read(): rfile.read(-1)
        # means read-until-EOF, which buffers whatever a keep-alive client
        # streams and bypasses the MAX_BODY_BYTES ceiling entirely.
        if length < 0:
            raise Reject(400, "invalid_content_length", {"value": length})
        if length > MAX_BODY_BYTES:
            raise Reject(413, "body_too_large", {"limit_bytes": MAX_BODY_BYTES})
        raw = request.read(length) if length else b""
        if not raw:
            raise Reject(400, "empty_body")
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise Reject(400, "malformed_json", {"detail": str(exc)}) from exc
        if not isinstance(body, dict):
            raise Reject(400, "malformed_json", {"detail": "body must be an object"})
        return body

    # -- endpoints (each returns its Response, content type stated) ----------

    def _get_site(self, request: Request) -> Response:
        query = request.query()
        host = self._required(query, "host")
        body = self.engine.site(host, version=query.get("version")).encoded()
        self.lookups_total.inc()
        return Response(200, body)

    def _get_classify(self, request: Request) -> Response:
        query = request.query()
        page = self._required(query, "page")
        req = self._required(query, "request")
        body = self.engine.classify(page, req, version=query.get("version")).encoded()
        self.lookups_total.inc(2)
        return Response(200, body)

    def _get_compare(self, request: Request) -> Response:
        query = request.query()
        host = self._required(query, "host")
        old = self._required(query, "old")
        body = self.engine.compare(host, old, query.get("new")).encoded()
        self.lookups_total.inc(2)
        return Response(200, body)

    def _get_versions(self, request: Request) -> Response:
        raw = request.query().get("limit")
        limit: int | None = None
        if raw is not None:
            try:
                limit = int(raw)
            except ValueError:
                pass
            if limit is None or limit < 0:
                raise Reject(400, "malformed_parameter", {"parameter": "limit"})
        return Response(200, self.registry.describe(limit=limit))

    def _get_healthz(self, request: Request) -> Response:
        registry = self.registry
        draining = self.draining
        body: dict[str, Any] = {
            "status": "draining" if draining else "ok",
            "active": registry.active.describe(),
            "generation": registry.generation,
            "epoch": self.epochs.epoch(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "inflight": self.inflight,
        }
        if self.worker_id is not None:
            body["worker"] = self.worker_id
        if self.fleet_view is not None:
            # The fleet block must never take /healthz down with it: a
            # torn heartbeat file degrades to an error note, not a 500.
            try:
                body["fleet"] = self.fleet_view()
            except Exception as exc:
                body["fleet"] = {"error": repr(exc)}
        if self.watcher is not None:
            body["update"] = self.watcher.status().to_json()
        # 503 while draining so load balancers eject the instance; the
        # body still carries full state for operators mid-drain.
        return Response(503 if draining else 200, body)

    def _get_metrics(self, request: Request) -> Response:
        return Response(200, self.metrics.render().encode("utf-8"), METRICS_TYPE)

    def _post_batch(self, request: Request) -> Response:
        body = self._read_body(request)
        hostnames = body.get("hostnames")
        if not isinstance(hostnames, list) or not all(
            isinstance(h, str) for h in hostnames
        ):
            raise Reject(
                400, "malformed_batch", {"detail": "'hostnames' must be a list of strings"}
            )
        if len(hostnames) > MAX_BATCH_HOSTNAMES:
            raise Reject(413, "batch_too_large", {"limit": MAX_BATCH_HOSTNAMES})
        answer = self.engine.batch(hostnames, version=body.get("version"))
        self.lookups_total.inc(len(hostnames))
        return Response(200, answer.encoded())

    def _post_swap(self, request: Request) -> Response:
        query = request.query()
        spec = query.get("version")
        if spec is None:
            spec = self._read_body(request).get("version")
        if spec is None:
            raise Reject(400, "missing_parameter", {"parameter": "version"})
        snapshot, epoch = self.epochs.swap(spec)
        return Response(200, {
            "active": snapshot.describe(),
            "generation": self.registry.generation,
            "epoch": epoch,
        })
