"""The pre-fork multi-worker front-end with fleet-wide epoch hot-swap.

Scaling past the GIL means processes, and processes mean coordination.
This module supplies both halves:

* :class:`FleetSupervisor` — binds one port, forks ``N`` worker
  processes that each run the threaded HTTP adapter over the *same*
  request core logic (:mod:`repro.serve.core`), supervises them
  (crash → respawn under a bounded restart budget), owns the update
  watcher, and drains the whole fleet on SIGTERM.  Workers either bind
  the port themselves with ``SO_REUSEPORT`` (the kernel load-balances
  accepts across processes) or, where that option is unavailable,
  inherit the supervisor's already-listening socket across the fork
  (the parent-fd fallback).

* :class:`EpochBus` — a tiny file-based coordination substrate: an
  append-only ``events.jsonl`` of swap/ingest events, an atomically
  replaced ``EPOCH`` pointer, per-event packed blobs, and per-worker
  heartbeat files.  Publishes serialize on an ``flock``; readers never
  lock.  A ``/swap`` on *any* worker becomes one atomic epoch bump
  that every worker observes within its poll interval, and the
  supervisor's watcher publishes validated new versions the same way
  — so the fleet answers queries from one coherent PSL version, which
  is the whole point of a service built around the paper's
  which-version-answered harm model.

Memory stays ~1× the packed buffer: every worker is forked from the
supervisor after the snapshot buffer exists, so an ``mmap``-loaded
``PSLPAK1`` blob is OS-page-shared outright and an in-heap buffer is
shared copy-on-write (and never written).

Nothing here runs on platforms without ``os.fork``; the single-process
server in :mod:`repro.serve.http` is unaffected.
"""

from __future__ import annotations

import datetime
import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.update.upstream import SyntheticUpstream
    from repro.update.watcher import WatcherConfig

from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.packed import PackedHistory
from repro.runtime.checkpoint import atomic_write_bytes
from repro.serve.core import DEFAULT_MAX_INFLIGHT, Reject, RequestCore
from repro.serve.http import PslServer, serve_forever
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry

__all__ = [
    "BusEpochs",
    "EpochBus",
    "FleetConfig",
    "FleetSupervisor",
    "PublishingRegistry",
    "fork_available",
    "reuseport_available",
]


def fork_available() -> bool:
    """Whether this platform can run a pre-fork fleet at all."""
    return hasattr(os, "fork")


def reuseport_available() -> bool:
    """Whether workers can each bind the port (vs the parent-fd path)."""
    return hasattr(socket, "SO_REUSEPORT")


# ---------------------------------------------------------------------------
# The epoch bus
# ---------------------------------------------------------------------------

class EpochBus:
    """File-based fleet coordination: epoch pointer + event journal.

    Layout under ``root``::

        EPOCH          current epoch as decimal text (atomic replace)
        events.jsonl   one JSON event per line, appended under LOCK
        LOCK           flock target serializing publishes
        blobs/         per-ingest packed single-version buffers
        workers/       per-worker heartbeat JSON (atomic replace)

    Publish protocol: take the flock, write the blob (if any), append
    the event line (fsync), then atomically replace ``EPOCH``.  A
    reader that observes ``EPOCH == n`` is therefore guaranteed the
    journal already contains every event up to ``n`` — no reader ever
    locks.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        os.makedirs(self.blob_dir, exist_ok=True)
        os.makedirs(self.worker_dir, exist_ok=True)
        self._epoch_path = os.path.join(root, "EPOCH")
        self._events_path = os.path.join(root, "events.jsonl")
        self._lock_path = os.path.join(root, "LOCK")
        # Read cursor: byte offset just past the last journal line this
        # process has fully consumed, and the epoch of that line.  Keeps
        # the steady-state poll O(new events) instead of O(journal).
        self._cursor_lock = threading.Lock()
        self._cursor_epoch = 0
        self._cursor_pos = 0
        if not os.path.exists(self._epoch_path):
            self._write_epoch(0)

    @property
    def blob_dir(self) -> str:
        return os.path.join(self.root, "blobs")

    @property
    def worker_dir(self) -> str:
        return os.path.join(self.root, "workers")

    # -- low-level plumbing --------------------------------------------------

    def _write_epoch(self, epoch: int) -> None:
        atomic_write_bytes(self._epoch_path, str(epoch).encode("ascii"))

    def current_epoch(self) -> int:
        try:
            with open(self._epoch_path, "r", encoding="ascii") as handle:
                return int(handle.read().strip() or "0")
        except (FileNotFoundError, ValueError):
            return 0

    def _publish(self, event: dict, blob: bytes | None = None) -> int:
        import fcntl  # POSIX-only, like the fork-based fleet itself

        with open(self._lock_path, "a+") as lock:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            epoch = self.current_epoch() + 1
            event = dict(event, epoch=epoch)
            if blob is not None:
                blob_name = f"{epoch}.bin"
                atomic_write_bytes(os.path.join(self.blob_dir, blob_name), blob)
                event["blob"] = blob_name
            with open(self._events_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._write_epoch(epoch)
            return epoch

    # -- the event vocabulary ------------------------------------------------

    def publish_swap(self, index: int) -> int:
        """An operator swap: every worker activates version ``index``."""
        return self._publish({"kind": "swap", "index": int(index)})

    def publish_ingest(
        self,
        *,
        index: int,
        date: datetime.date,
        patch: str,
        message: str,
        fingerprint: str,
        activate: bool,
        blob: bytes | None,
    ) -> int:
        """A validated new version: workers append it to their history."""
        return self._publish(
            {
                "kind": "ingest",
                "index": int(index),
                "date": date.isoformat(),
                "patch": patch,
                "message": message,
                "fingerprint": fingerprint,
                "activate": bool(activate),
            },
            blob=blob,
        )

    def events_since(self, epoch: int) -> list[dict]:
        """Every published event with epoch strictly greater than ``epoch``.

        Reads up to the *currently published* epoch only, so a publish
        racing this read can never surface a half-written line.  The
        journal is append-only and epoch-ordered (publishes serialize on
        the flock), so this process remembers the byte offset of the last
        line it consumed and resumes there — each poll pays for the new
        events, not the whole journal.  A caller asking about an epoch
        older than the cursor (e.g. a fresh registry replaying from zero)
        falls back to a full scan.
        """
        published = self.current_epoch()
        if published <= epoch:
            return []
        with self._cursor_lock:
            start_epoch, start_pos = self._cursor_epoch, self._cursor_pos
        if epoch < start_epoch:
            start_epoch, start_pos = 0, 0  # caller is behind the cursor
        events: list[dict] = []
        seen_epoch, pos = start_epoch, start_pos
        try:
            with open(self._events_path, "r", encoding="utf-8") as handle:
                handle.seek(start_pos)
                while True:
                    line = handle.readline()
                    if not line or not line.endswith("\n"):
                        break  # EOF, or a torn tail mid-append: stop before it
                    stripped = line.strip()
                    if stripped:
                        event = json.loads(stripped)
                        if event["epoch"] > published:
                            break  # past the published fence; reread next poll
                        if event["epoch"] > epoch:
                            events.append(event)
                        seen_epoch = event["epoch"]
                    pos = handle.tell()
        except FileNotFoundError:
            return []
        with self._cursor_lock:
            if seen_epoch > self._cursor_epoch:
                self._cursor_epoch, self._cursor_pos = seen_epoch, pos
        return events

    def read_blob(self, name: str) -> bytes:
        with open(os.path.join(self.blob_dir, name), "rb") as handle:
            return handle.read()

    # -- heartbeats ----------------------------------------------------------

    def write_heartbeat(self, worker_id: int, payload: dict) -> None:
        # A worker's beat thread and its final main-thread heartbeat can
        # overlap; AtomicFile's per-call temp name keeps them apart.
        path = os.path.join(self.worker_dir, f"{worker_id}.json")
        atomic_write_bytes(path, json.dumps(payload).encode("utf-8"))

    def read_heartbeats(self) -> list[dict]:
        rows: list[dict] = []
        try:
            names = sorted(os.listdir(self.worker_dir))
        except FileNotFoundError:
            return rows
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.worker_dir, name), "r", encoding="utf-8") as handle:
                    rows.append(json.load(handle))
            except (OSError, ValueError):  # torn or vanished: skip this scrape
                continue
        return rows

    def clear_heartbeat(self, worker_id: int) -> None:
        try:
            os.unlink(os.path.join(self.worker_dir, f"{worker_id}.json"))
        except FileNotFoundError:
            pass


def apply_event(registry: SnapshotRegistry, bus: EpochBus, event: dict) -> None:
    """Apply one published event to a worker's registry, idempotently.

    ``swap`` events always activate (activation of the current version
    is a no-op).  ``ingest`` events append exactly once: a worker
    forked *after* the supervisor already held the version (or one
    replaying the journal from epoch zero) skips the append and only
    honours the activation — so replay from any fork point converges
    on the same registry state.
    """
    kind = event["kind"]
    if kind == "swap":
        registry.activate(event["index"])
        return
    if kind != "ingest":  # unknown kinds are skipped, never fatal
        return
    index = int(event["index"])
    if index < len(registry.store):
        if event.get("activate", True):
            registry.activate(index)
        return
    if index > len(registry.store):
        raise RuntimeError(
            f"epoch bus gap: event ingests v{index} but local history ends at "
            f"v{len(registry.store) - 1}"
        )
    delta = RuleDelta.from_patch(event["patch"])
    blob = bus.read_blob(event["blob"]) if event.get("blob") else None
    registry.ingest(
        datetime.date.fromisoformat(event["date"]),
        delta,
        message=event.get("message", ""),
        packed_blob=blob,
        expected_fingerprint=event.get("fingerprint") or None,
        activate=bool(event.get("activate", True)),
    )


class BusEpochs:
    """A worker's epoch coordinator: follow the bus, publish swaps.

    Implements the :class:`~repro.serve.core.LocalEpochs` interface —
    the core calls :meth:`swap` for ``/swap`` and :meth:`epoch` for
    ``/healthz`` — but both sides route through the shared bus, which
    is what turns a swap on one worker into a fleet-wide epoch bump.
    """

    def __init__(
        self,
        registry: SnapshotRegistry,
        bus: EpochBus,
        *,
        on_apply: Callable[[int], None] | None = None,
    ) -> None:
        self._registry = registry
        self._bus = bus
        self._applied = 0
        self._lock = threading.Lock()
        self._on_apply = on_apply
        self._last_error: str | None = None

    @property
    def last_error(self) -> str | None:
        """The most recent event-apply failure (sticky until the next success)."""
        return self._last_error

    def epoch(self) -> int:
        return self._applied

    def published(self) -> int:
        return self._bus.current_epoch()

    def catch_up(self) -> int:
        """Apply every event this process has not applied yet.

        A failing event (e.g. a blob deleted out from under us) leaves
        the registry on its last-good version — the same containment
        contract the watcher's ingest path has — and is retried on the
        next poll rather than crashing the worker.
        """
        with self._lock:
            for event in self._bus.events_since(self._applied):
                try:
                    apply_event(self._registry, self._bus, event)
                except Exception as exc:
                    self._last_error = f"epoch {event.get('epoch')}: {exc!r}"
                    break
                self._applied = event["epoch"]
                self._last_error = None
                if self._on_apply is not None:
                    self._on_apply(self._applied)
            return self._applied

    def swap(self, spec: object) -> tuple[PslSnapshot, int]:
        """Resolve locally, publish fleet-wide, apply, answer.

        The spec is resolved to a concrete index *before* publishing so
        every worker activates the same version even if ``"latest"``
        would resolve differently mid-ingest on some of them.

        The swap is only reported as successful once this worker has
        *applied* it: if an earlier pending event fails to apply (e.g. a
        missing blob), :meth:`catch_up` stops before the swap and this
        worker is still serving the old version — answering 200 with the
        target version would be a lie, so the request fails instead and
        the published swap is retried by the poll loop.
        """
        index = self._registry.resolve(spec)
        epoch = self._bus.publish_swap(index)
        applied = self.catch_up()
        if applied < epoch:
            raise Reject(
                503,
                "swap_not_applied",
                {
                    "epoch": epoch,
                    "applied": applied,
                    "detail": self._last_error or "pending events not yet applied",
                },
            )
        return self._registry.resident(index), epoch

    def describe(self) -> dict:
        return {
            "mode": "fleet",
            "epoch": self.epoch(),
            "published": self.published(),
        }


class PublishingRegistry(SnapshotRegistry):
    """The supervisor's registry: every successful ingest hits the bus.

    The update watcher validates and ingests exactly as in the
    single-process tier; this subclass adds one post-commit step —
    publishing the validated delta (and its packed blob) as an epoch
    event so every worker replays the same ingest.  Rejections raise
    before ``super().ingest`` returns and therefore never publish.
    """

    def __init__(self, store: VersionStore, bus: EpochBus, **kwargs) -> None:
        super().__init__(store, **kwargs)
        self._bus = bus

    def ingest(
        self,
        date: datetime.date,
        delta: RuleDelta,
        *,
        message: str = "",
        packed_blob: bytes | None = None,
        expected_fingerprint: str | None = None,
        activate: bool = True,
    ) -> PslSnapshot:
        snapshot = super().ingest(
            date,
            delta,
            message=message,
            packed_blob=packed_blob,
            expected_fingerprint=expected_fingerprint,
            activate=activate,
        )
        self._bus.publish_ingest(
            index=snapshot.index,
            date=date,
            patch=delta.to_patch(),
            message=message,
            fingerprint=expected_fingerprint or snapshot.fingerprint,
            activate=activate,
            blob=bytes(packed_blob) if packed_blob is not None else None,
        )
        return snapshot


# ---------------------------------------------------------------------------
# Fleet configuration and views
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class FleetConfig:
    """Everything a fleet needs beyond the world itself."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    version: object = "latest"
    resident_capacity: int = 4
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    request_timeout: float | None = 30.0
    drain_deadline: float = 10.0
    #: ``None`` = use ``SO_REUSEPORT`` when the platform has it.
    reuse_port: bool | None = None
    #: Total respawns allowed across the fleet's lifetime; crossing it
    #: stops respawning (a crash loop must not fork-bomb the host).
    restart_budget: int = 16
    heartbeat_interval: float = 0.25
    #: How often each worker polls the bus for new epochs.
    poll_interval: float = 0.05
    run_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be non-negative")


#: A heartbeat this much older than ``heartbeat_interval`` x this
#: factor is considered stale (worker wedged or gone).
HEARTBEAT_STALE_FACTOR = 8.0


def fleet_view(bus: EpochBus, *, expected_workers: int, stale_after: float) -> dict:
    """One coherent fleet snapshot (the ``/healthz`` ``fleet`` block).

    ``agreement`` is the operator's one-glance answer to "did the last
    swap land everywhere": every expected worker has a fresh heartbeat
    *and* reports the published epoch.
    """
    published = bus.current_epoch()
    now = time.time()
    rows = []
    fresh_agreeing = 0
    for beat in bus.read_heartbeats():
        age = max(0.0, now - float(beat.get("updated_at", 0.0)))
        fresh = age <= stale_after
        row = {
            "worker": beat.get("worker"),
            "pid": beat.get("pid"),
            "epoch": beat.get("epoch"),
            "active_index": beat.get("active_index"),
            "requests_total": beat.get("requests_total"),
            "heartbeat_age_seconds": round(age, 3),
            "fresh": fresh,
        }
        if beat.get("error"):
            row["error"] = beat["error"]
        rows.append(row)
        if fresh and beat.get("epoch") == published:
            fresh_agreeing += 1
    return {
        "published_epoch": published,
        "expected_workers": expected_workers,
        "reporting": len(rows),
        "agreement": fresh_agreeing >= expected_workers,
        "workers": rows,
    }


def install_fleet_metrics(
    metrics: MetricsRegistry,
    bus: EpochBus,
    *,
    expected_workers: int,
    stale_after: float,
) -> None:
    """Fleet-wide gauges on a worker's ``/metrics``.

    Counters cannot be summed exactly across processes without a
    shared-memory mmap; instead every worker exposes the whole fleet's
    per-worker totals label-tagged (``worker="0"`` ...), sampled from
    heartbeat files at scrape time — any single scrape therefore sees
    the aggregate, one label-sum away.
    """
    view = lambda: fleet_view(
        bus, expected_workers=expected_workers, stale_after=stale_after
    )
    metrics.callback_gauge(
        "psl_fleet_published_epoch",
        "Epoch most recently published on the fleet bus.",
        lambda: bus.current_epoch(),
    )
    metrics.callback_gauge(
        "psl_fleet_expected_workers",
        "Workers the supervisor is meant to keep alive.",
        lambda: expected_workers,
    )
    metrics.callback_gauge(
        "psl_fleet_workers_reporting",
        "Workers with a heartbeat file present.",
        lambda: view()["reporting"],
    )
    metrics.callback_gauge(
        "psl_fleet_epoch_agreement",
        "1 when every expected worker reports the published epoch (fresh heartbeat).",
        lambda: 1.0 if view()["agreement"] else 0.0,
    )
    metrics.multi_callback_gauge(
        "psl_fleet_worker_epoch",
        "Per worker: the epoch that worker has applied.",
        ("worker",),
        lambda: {
            str(row["worker"]): float(row["epoch"] or 0)
            for row in view()["workers"]
        },
    )
    metrics.multi_callback_gauge(
        "psl_fleet_worker_requests_total",
        "Per worker: requests handled (from the worker's heartbeat).",
        ("worker",),
        lambda: {
            str(row["worker"]): float(row["requests_total"] or 0)
            for row in view()["workers"]
        },
    )


# ---------------------------------------------------------------------------
# Worker process body
# ---------------------------------------------------------------------------

def _worker_body(
    worker_id: int,
    store: VersionStore,
    packed: PackedHistory | None,
    bus: EpochBus,
    config: FleetConfig,
    port: int,
    listen_socket: socket.socket | None,
    quiet: bool,
) -> int:
    """Everything one forked worker does; returns its exit code."""
    # Catch SIGTERM/SIGINT from the first instruction: a drain issued
    # while this worker is still building its registry must read as a
    # clean stop, not death-by-default-action.  serve_forever() later
    # installs its own handlers over these, sharing the same event.
    terminate = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:  # pragma: no cover - signal path
        terminate.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _request_stop)

    registry = SnapshotRegistry(
        store,
        active=config.version,
        resident_capacity=config.resident_capacity,
        packed=packed,
    )
    epochs = BusEpochs(registry, bus)
    stale_after = max(2.0, config.heartbeat_interval * HEARTBEAT_STALE_FACTOR)
    core = RequestCore(
        registry,
        max_inflight=config.max_inflight,
        epochs=epochs,
        worker_id=worker_id,
        fleet_view=lambda: fleet_view(
            bus, expected_workers=config.workers, stale_after=stale_after
        ),
    )
    install_fleet_metrics(
        core.metrics, bus, expected_workers=config.workers, stale_after=stale_after
    )
    epochs.catch_up()  # events published before this worker was born

    server = PslServer(
        (config.host, port),
        registry,
        core=core,
        request_timeout=config.request_timeout,
        quiet=quiet,
        reuse_port=listen_socket is None,
        listen_socket=listen_socket,
    )

    stop = threading.Event()

    def heartbeat() -> None:
        bus.write_heartbeat(
            worker_id,
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "epoch": epochs.epoch(),
                "active_index": registry.active.index,
                "generation": registry.generation,
                "requests_total": core.requests_total.total(),
                "lookups_total": core.lookups_total.total(),
                "rejected_total": core.rejected_total.total(),
                "draining": core.draining,
                "error": epochs.last_error,
                "updated_at": time.time(),
            },
        )

    def follow() -> None:
        while not stop.wait(config.poll_interval):
            before = epochs.epoch()
            if epochs.catch_up() != before or epochs.last_error:
                heartbeat()  # publish the new epoch immediately

    def beat() -> None:
        while not stop.wait(config.heartbeat_interval):
            heartbeat()

    heartbeat()
    threading.Thread(target=follow, name="epoch-follower", daemon=True).start()
    threading.Thread(target=beat, name="fleet-heartbeat", daemon=True).start()

    drained = serve_forever(
        server, drain_deadline=config.drain_deadline, stop_event=terminate
    )
    stop.set()
    heartbeat()  # final state: draining=True, last counters
    return 0 if drained else 1


def _run_worker(*args, **kwargs) -> "NoReturn":  # type: ignore[name-defined]
    """The post-fork trampoline: never returns, never runs atexit."""
    code = 1
    try:
        code = _worker_body(*args, **kwargs)
    except BaseException:  # pragma: no cover - crash path
        try:
            import traceback

            traceback.print_exc()
        except Exception:
            pass
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            pass
        os._exit(code)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _WorkerSlot:
    worker_id: int
    pid: int = 0
    alive: bool = False


class FleetSupervisor:
    """Forks, supervises, and drains a fleet of serving workers.

    The supervisor serves no traffic itself.  It owns: the port (a
    bound placeholder in ``SO_REUSEPORT`` mode, the listening socket in
    parent-fd mode), the epoch bus, worker lifecycles (respawn on crash
    within :attr:`FleetConfig.restart_budget`), and — when an upstream
    is given — the *only* update watcher in the fleet, whose validated
    ingests reach workers as epoch events via
    :class:`PublishingRegistry`.
    """

    def __init__(
        self,
        store: VersionStore,
        *,
        config: FleetConfig | None = None,
        packed: PackedHistory | None = None,
        upstream: "SyntheticUpstream | None" = None,
        watcher_config: "WatcherConfig | None" = None,
        quiet: bool = True,
    ) -> None:
        if not fork_available():  # pragma: no cover - platform guard
            raise OSError("the pre-fork fleet requires os.fork (POSIX)")
        self.config = config if config is not None else FleetConfig()
        self._store = store
        self._packed = packed
        self._upstream = upstream
        self._watcher_config = watcher_config
        self._quiet = quiet
        self.bus: EpochBus | None = None
        self.watcher = None  # type: ignore[assignment]
        self.port: int | None = None
        self.respawns = 0
        self.restart_budget_exhausted = False
        self._slots: list[_WorkerSlot] = []
        self._placeholder: socket.socket | None = None
        self._listener: socket.socket | None = None
        self._reuse_port = (
            self.config.reuse_port
            if self.config.reuse_port is not None
            else reuseport_available()
        )
        self._own_run_dir: str | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = False
        self._supervision: threading.Thread | None = None
        self._started = False
        self._closed = False

    # -- addressing ----------------------------------------------------------

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("fleet not started")
        return f"http://{self.config.host}:{self.port}"

    @property
    def reuse_port(self) -> bool:
        """True when workers share the port via ``SO_REUSEPORT``."""
        return self._reuse_port

    def alive_pids(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(slot.pid for slot in self._slots if slot.alive)

    def heartbeats(self) -> list[dict]:
        if self.bus is None:
            return []
        return self.bus.read_heartbeats()

    def view(self) -> dict:
        """The same fleet snapshot workers serve on ``/healthz``."""
        if self.bus is None:
            return {"published_epoch": 0, "workers": [], "agreement": False}
        stale_after = max(
            2.0, self.config.heartbeat_interval * HEARTBEAT_STALE_FACTOR
        )
        return fleet_view(
            self.bus, expected_workers=self.config.workers, stale_after=stale_after
        )

    # -- socket strategy -----------------------------------------------------

    def _claim_port(self) -> None:
        """Bind the port once, pre-fork, whichever strategy applies.

        ``SO_REUSEPORT`` mode keeps a bound-but-never-listening
        placeholder for the fleet's lifetime: it pins the (possibly
        ephemeral) port so respawned workers can always rebind it, and
        because it never listens the kernel routes no connections to
        it.  Parent-fd mode binds *and listens* here; workers accept on
        the inherited fd.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self._reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.config.host, self.config.port))
            self._placeholder = sock
        else:
            sock.bind((self.config.host, self.config.port))
            sock.listen(128)
            self._listener = sock
        self.port = sock.getsockname()[1]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind, fork the fleet, start supervision (and the watcher)."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        if self.config.run_dir is None:
            self._own_run_dir = tempfile.mkdtemp(prefix="psl-fleet-")
            run_dir = self._own_run_dir
        else:
            run_dir = self.config.run_dir
        self.bus = EpochBus(run_dir)
        self._claim_port()
        self._slots = [_WorkerSlot(worker_id=i) for i in range(self.config.workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._supervision = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True
        )
        self._supervision.start()
        if self._upstream is not None:
            self._start_watcher()

    def _start_watcher(self) -> None:
        """The fleet's single watcher, over a private store clone.

        The clone matters: the supervisor's registry appends ingested
        versions to *its* history, while the base store stays frozen as
        the fork image — so a worker respawned later still starts from
        the pristine prefix and replays the bus to converge.
        """
        from repro.update.watcher import Watcher, WatcherConfig

        clone = VersionStore()
        for version in self._store.versions:
            clone.commit(version.date, version.delta, message=version.message)
        registry = PublishingRegistry(clone, self.bus, resident_capacity=2)
        self.watcher = Watcher(
            registry,
            self._upstream,
            config=self._watcher_config
            if self._watcher_config is not None
            else WatcherConfig(),
        )
        self.watcher.start()

    def _spawn(self, slot: _WorkerSlot) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: shed supervisor-side state it must not touch.
            try:
                if self._placeholder is not None:
                    self._placeholder.close()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(signum, signal.SIG_DFL)
            except Exception:
                pass
            _run_worker(
                slot.worker_id,
                self._store,
                self._packed,
                self.bus,
                self.config,
                self.port,
                self._listener,
                self._quiet,
            )
            raise AssertionError("unreachable")  # pragma: no cover
        slot.pid = pid
        slot.alive = True

    def _supervise(self) -> None:
        """Reap exited workers; respawn within the restart budget."""
        while not self._stop.wait(0.05):
            self.supervise_once()

    def supervise_once(self) -> None:
        """One reap-and-respawn pass (exposed for deterministic tests)."""
        with self._lock:
            for slot in self._slots:
                if not slot.alive:
                    continue
                try:
                    pid, status = os.waitpid(slot.pid, os.WNOHANG)
                except ChildProcessError:
                    pid, status = slot.pid, -1
                if pid == 0:
                    continue
                slot.alive = False
                if self.bus is not None:
                    self.bus.clear_heartbeat(slot.worker_id)
                if self._draining:
                    continue
                if self.respawns >= self.config.restart_budget:
                    self.restart_budget_exhausted = True
                    continue
                self.respawns += 1
                self._spawn(slot)

    def run(self) -> bool:
        """Block until SIGTERM/SIGINT, then drain the fleet.

        The supervisor's signal story mirrors the single-process
        server's: handlers only set an event; the drain runs on the
        main thread.
        """
        if not self._started:
            self.start()
        stop = threading.Event()

        def request_stop(signum: int, frame: object) -> None:  # pragma: no cover
            stop.set()

        previous: dict[int, object] = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, request_stop)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        try:
            while not stop.wait(0.2):
                if self.restart_budget_exhausted and not self.alive_pids():
                    # Crash loop burned the budget and nobody serves:
                    # exit instead of pretending the fleet is up.
                    break
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        drained = self.drain()
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)  # type: ignore[arg-type]
            except (ValueError, OSError):  # pragma: no cover
                pass
        return drained

    def drain(self, *, deadline: float | None = None) -> bool:
        """Gracefully stop every worker, then the watcher and sockets.

        SIGTERM fans out to the fleet (each worker runs its own
        in-process drain: healthz flips to draining, in-flight requests
        finish), the supervisor waits out ``deadline``, and anything
        still alive is SIGKILLed — a bounded, operator-predictable
        stop.  Returns True when every worker exited cleanly by itself.
        """
        if self._closed:
            return True
        self._draining = True
        # Stop the supervision loop *first* so it cannot race this
        # method for the children's exit statuses (whoever reaps first
        # consumes the status; drain needs it for the clean verdict).
        self._stop.set()
        if self._supervision is not None:
            self._supervision.join(timeout=5)
        if deadline is None:
            deadline = self.config.drain_deadline + 5.0
        if self.watcher is not None:
            self.watcher.request_stop()
        with self._lock:
            targets = [slot for slot in self._slots if slot.alive]
        for slot in targets:
            try:
                os.kill(slot.pid, signal.SIGTERM)
            except ProcessLookupError:
                slot.alive = False
        limit = time.monotonic() + deadline
        clean = True
        for slot in targets:
            while slot.alive:
                try:
                    pid, status = os.waitpid(slot.pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid != 0:
                    if os.waitstatus_to_exitcode(status) != 0:
                        clean = False
                    break
                if time.monotonic() >= limit:
                    clean = False
                    try:
                        os.kill(slot.pid, signal.SIGKILL)
                        os.waitpid(slot.pid, 0)
                    except (ProcessLookupError, ChildProcessError):
                        pass
                    break
                time.sleep(0.02)
            slot.alive = False
        if self.watcher is not None:
            clean = self.watcher.stop(timeout=5.0) and clean
        for sock in (self._placeholder, self._listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
        self._placeholder = None
        self._listener = None
        self._closed = True
        return clean

    # Context-manager sugar for tests and examples.
    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()
