"""The ``psl-serve`` command: run the PSL query service.

Usage::

    psl-serve                          # latest version, port 8053
    psl-serve --port 0                 # ephemeral port (printed)
    psl-serve --version 2019-06-01     # pin an historical version
    psl-serve --cache-dir .psl-cache   # warm the history from the
                                       # artifact store (repro.pipeline)
    psl-serve --watch --behind 8       # serve 8 versions behind a
                                       # synthetic upstream and let the
                                       # repro.update watcher catch up
                                       # live (staleness SLOs on
                                       # /healthz and /metrics)
    psl-serve --workers 4 --packed     # pre-fork fleet: 4 worker
                                       # processes sharing one port
                                       # (SO_REUSEPORT) and one packed
                                       # snapshot buffer; /swap bumps
                                       # the fleet epoch everywhere
    psl-serve --smoke                  # self-test: start on an
                                       # ephemeral port, hit every
                                       # endpoint, assert JSON shapes
                                       # (add --workers N for the
                                       # fleet smoke)

With ``--cache-dir`` the history comes out of the same
content-addressed :class:`~repro.pipeline.ArtifactStore` that
``psl-repro --cache-dir`` populates, so a box that has rendered any
figure starts the server without re-synthesizing the world.

Shutdown is graceful: SIGTERM/SIGINT flip ``/healthz`` to ``draining``
(503), stop the watcher, stop accepting connections, and drain
in-flight requests under ``--drain-deadline`` seconds before closing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
import urllib.parse
import urllib.request
from typing import Callable

from repro.history.store import VersionStore
from repro.serve.http import DEFAULT_MAX_INFLIGHT, PslServer, serve_forever
from repro.serve.snapshots import SnapshotRegistry

DEFAULT_PORT = 8053
DEFAULT_SEED = 20230701


def build_world(seed: int, cache_dir: str | None, *, packed: bool):
    """The history plus (optionally) its packed history.

    Both are the paper pipeline's world stages
    (:func:`~repro.analysis.context.world_pipeline`), so the server and
    ``psl-repro`` share one artifact.  With a ``cache_dir`` the packed
    history is ``mmap``-ed straight off the store's verified payload
    file: every server process mapping it shares one physical copy.
    Without one the stages run over a memory-only store and the buffer
    stays in this process's heap.
    """
    from repro.analysis.context import world_pipeline
    from repro.psl.packed import PackedHistory

    pipeline = world_pipeline(seed, cache_dir)
    store = pipeline.build("history")
    if not packed:
        return store, None
    path = pipeline.path("packed")
    if path is None:
        return store, PackedHistory.from_buffer(pipeline.build("packed"))
    return store, PackedHistory.load(path)  # mmap: OS-shared pages


def prefix_store(full: VersionStore, count: int) -> VersionStore:
    """The first ``count`` versions of ``full`` as their own store.

    Commit hashes chain identically, so the prefix is exactly what a
    consumer who vendored the list at version ``count - 1`` holds —
    the starting state of the live-update scenario.
    """
    if not 1 <= count <= len(full):
        raise ValueError(f"prefix count {count} out of range [1, {len(full)}]")
    store = VersionStore()
    for version in full.versions[:count]:
        store.commit(version.date, version.delta, message=version.message)
    return store


def build_serving_world(args: argparse.Namespace):
    """The store and packed buffer to serve, plus the watch wiring.

    Returns ``(store, packed, upstream, watcher_config)``.  Without
    ``--watch`` the last two are ``None``.  With it, the full history
    becomes a :class:`~repro.update.upstream.SyntheticUpstream`'s truth
    and the served store starts ``--behind`` versions back.  The packed
    buffer stays the full history's: a registry serves off it only the
    versions its store held when it was built, and every version the
    watcher ingests is built from its validated delta.
    """
    store, packed = build_world(args.seed, args.cache_dir, packed=args.packed)
    if not getattr(args, "watch", False):
        return store, packed, None, None
    from repro.update.upstream import SyntheticUpstream
    from repro.update.watcher import WatcherConfig

    truth = store
    behind = max(1, min(args.behind, len(truth) - 1))
    store = prefix_store(truth, len(truth) - behind)
    return (
        store,
        packed,
        SyntheticUpstream(truth),
        WatcherConfig(poll_interval=args.poll_interval),
    )


def build_server(args: argparse.Namespace) -> PslServer:
    """Assemble store -> registry -> engine -> server from parsed flags.

    With ``--watch`` the full history becomes the synthetic upstream's
    truth, the registry starts ``--behind`` versions back, and a
    :class:`repro.update.watcher.Watcher` (not yet started — the
    caller owns the thread) is attached for SLO metrics and catch-up.
    """
    store, packed, upstream, watcher_config = build_serving_world(args)
    registry = SnapshotRegistry(
        store,
        active=args.version,
        resident_capacity=args.resident,
        packed=packed,
    )
    server = PslServer(
        (args.host, args.port),
        registry,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
        quiet=not args.verbose,
    )
    if upstream is not None:
        from repro.update.watcher import Watcher

        server.attach_watcher(Watcher(registry, upstream, config=watcher_config))
    return server


def build_fleet(args: argparse.Namespace):
    """Assemble a :class:`~repro.serve.fleet.FleetSupervisor` from flags.

    The watch path mirrors :func:`build_server`, but the watcher runs
    in the *supervisor only*: its validated ingests are published on
    the fleet's epoch bus and every worker replays them, so the whole
    fleet tracks upstream in lockstep.
    """
    from repro.serve.fleet import FleetConfig, FleetSupervisor

    store, packed, upstream, watcher_config = build_serving_world(args)
    config = FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        version=args.version,
        resident_capacity=args.resident,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
        drain_deadline=args.drain_deadline,
        reuse_port=False if args.no_reuseport else None,
        restart_budget=args.restart_budget,
        run_dir=args.run_dir,
    )
    return FleetSupervisor(
        store,
        config=config,
        packed=packed,
        upstream=upstream,
        watcher_config=watcher_config,
        quiet=not args.verbose,
    )


# -- the smoke self-test -----------------------------------------------------

def _fetch(url: str, *, data: bytes | None = None) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if data else {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _metrics_after_a_lookup(base: str) -> tuple[int, bytes]:
    """``GET /site`` then ``/metrics`` on one keep-alive connection, so under
    ``SO_REUSEPORT`` the worker that renders the histogram has answered one."""
    url = urllib.parse.urlsplit(base)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        connection.request("GET", "/site?host=www.example.co.uk")
        connection.getresponse().read()
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_smoke(base: str) -> list[str]:
    """Drive every endpoint over real HTTP; returns failure messages.

    This is what ``make serve-smoke`` runs: each check issues a real
    request and asserts the JSON shape a client would parse.
    """
    failures: list[str] = []

    def check(name: str, condition: bool, detail: str = "") -> None:
        line = f"{'ok' if condition else 'FAIL':4s} {name}"
        if detail and not condition:
            line += f" — {detail}"
        print(line)
        if not condition:
            failures.append(name)

    def get_json(path: str, *, data: bytes | None = None) -> tuple[int, dict]:
        status, raw = _fetch(base + path, data=data)
        return status, json.loads(raw)

    status, body = get_json("/healthz")
    check("/healthz status", status == 200 and body.get("status") == "ok", str(body))
    check("/healthz shape", {"active", "generation", "uptime_seconds"} <= set(body))

    status, body = get_json("/site?host=www.example.co.uk")
    check("/site status", status == 200, str(status))
    check(
        "/site shape",
        {"hostname", "site", "public_suffix", "registrable_domain", "version"} <= set(body),
        str(body),
    )

    status, body = get_json("/site?host=bad..name")
    check("/site 400 on malformed", status == 400, str(status))
    check(
        "/site error shape",
        body.get("error", {}).get("kind") == "invalid_hostname"
        and "reason" in body.get("error", {}),
        str(body),
    )

    payload = json.dumps(
        {"hostnames": ["a.example.com", "b.example.org", "white space.bad"]}
    ).encode()
    status, body = get_json("/batch", data=payload)
    check("/batch status", status == 200, str(status))
    check(
        "/batch shape",
        body.get("count") == 3 and body.get("errors") == 1 and len(body.get("answers", [])) == 3,
        str(body)[:200],
    )

    status, body = get_json("/classify?page=www.shop.example&request=cdn.tracker.example")
    check("/classify status", status == 200, str(status))
    check(
        "/classify shape",
        isinstance(body.get("third_party"), bool) and "page" in body and "request" in body,
        str(body)[:200],
    )

    status, body = get_json("/compare?host=www.example.co.uk&old=0")
    check("/compare status", status == 200, str(status))
    check(
        "/compare shape",
        isinstance(body.get("diverges"), bool) and "old" in body and "new" in body,
        str(body)[:200],
    )

    status, body = get_json("/versions?limit=3")
    check("/versions status", status == 200, str(status))
    check(
        "/versions shape",
        "count" in body and "active" in body and len(body.get("versions", [])) <= 3,
        str(body)[:200],
    )

    status, body = get_json("/swap?version=0", data=b"{}")
    check("/swap to v0", status == 200 and body.get("active", {}).get("index") == 0, str(body))
    status, body = get_json("/swap?version=latest", data=b"{}")
    check("/swap back to latest", status == 200, str(body))

    status, body = get_json("/nowhere")
    check("unknown path is 404", status == 404, str(status))

    status, raw = _metrics_after_a_lookup(base)
    text = raw.decode()
    check("/metrics status", status == 200, str(status))
    for needle in (
        "psl_serve_requests_total",
        "psl_serve_request_seconds_bucket",
        "psl_serve_hostname_lookups_total",
        "psl_serve_snapshot_age_days",
        "psl_serve_snapshot_swaps_total",
    ):
        check(f"/metrics exposes {needle}", needle in text)

    return failures


def wait_until_up(base: str, *, timeout: float = 10.0) -> bool:
    """Poll ``/healthz`` until some process answers (fleet startup)."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        try:
            status, _ = _fetch(base + "/healthz")
            if status in (200, 503):
                return True
        except OSError:
            pass
        time.sleep(0.05)
    return False


def run_fleet_smoke(base: str, workers: int) -> list[str]:
    """Fleet-specific checks on top of :func:`run_smoke`.

    Asserts the coordination surface: every worker heartbeats, the
    smoke's ``/swap`` calls propagated as epoch bumps everybody agrees
    on, and the fleet gauges are scrapeable.
    """
    failures: list[str] = []

    def check(name: str, condition: bool, detail: str = "") -> None:
        line = f"{'ok' if condition else 'FAIL':4s} {name}"
        if detail and not condition:
            line += f" — {detail}"
        print(line)
        if not condition:
            failures.append(name)

    fleet: dict = {}
    limit = time.monotonic() + 10.0
    while time.monotonic() < limit:
        _, raw = _fetch(base + "/healthz")
        body = json.loads(raw)
        fleet = body.get("fleet", {})
        if fleet.get("agreement") and fleet.get("reporting", 0) >= workers:
            break
        time.sleep(0.1)
    check("fleet block on /healthz", bool(fleet), "no 'fleet' key")
    check(
        "all workers reporting",
        fleet.get("reporting", 0) >= workers,
        f"{fleet.get('reporting')} of {workers}",
    )
    check(
        "epoch agreement after swaps",
        fleet.get("agreement") is True,
        json.dumps(fleet)[:300],
    )
    check(
        "epoch advanced by the smoke's swaps",
        fleet.get("published_epoch", 0) >= 2,
        str(fleet.get("published_epoch")),
    )

    _, raw = _fetch(base + "/metrics")
    text = raw.decode()
    for needle in (
        "psl_fleet_published_epoch",
        "psl_fleet_epoch_agreement",
        "psl_fleet_worker_epoch",
    ):
        check(f"/metrics exposes {needle}", needle in text)
    return failures


def _fleet_smoke_main(args: argparse.Namespace) -> int:
    args.port = 0
    print("building history…", flush=True)
    supervisor = build_fleet(args)
    supervisor.start()
    mode = "SO_REUSEPORT" if supervisor.reuse_port else "inherited parent fd"
    print(f"fleet of {args.workers} workers on {supervisor.url} ({mode})")
    failures: list[str] = []
    try:
        if not wait_until_up(supervisor.url):
            failures.append("fleet startup")
        else:
            failures = run_smoke(supervisor.url)
            failures += run_fleet_smoke(supervisor.url, args.workers)
    finally:
        if not supervisor.drain():
            failures.append("graceful fleet drain")
    if failures:
        print(f"\nfleet smoke FAILED: {len(failures)} check(s): {', '.join(failures)}")
        return 1
    print("\nfleet smoke ok: every endpoint answered and every worker agreed on the epoch")
    return 0


def _smoke_main(args: argparse.Namespace) -> int:
    if args.workers > 1:
        return _fleet_smoke_main(args)
    args.port = 0  # ephemeral: the smoke test must not fight over a port
    print("building history…", flush=True)
    server = build_server(args)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"serving on {server.url} (version v{server.registry.active.index})")
    failures: list[str] = []
    try:
        failures = run_smoke(server.url)
    finally:
        if not server.drain():
            failures.append("graceful drain")
        thread.join(timeout=5)
    if failures:
        print(f"\nsmoke FAILED: {len(failures)} check(s): {', '.join(failures)}")
        return 1
    print("\nsmoke ok: every endpoint answered with the documented shape")
    return 0


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psl-serve",
        description="Serve PSL queries over HTTP with hot-swappable versioned snapshots.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="bind port (0 = ephemeral)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="world seed for the synthetic history")
    parser.add_argument(
        "--version",
        default="latest",
        help="initial active version: index, ISO date, or 'latest'",
    )
    parser.add_argument(
        "--resident", type=int, default=4,
        help="how many extra versions stay materialized for /compare",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="concurrent requests admitted before shedding 503s",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="warm the history from this repro.pipeline artifact store",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-connection socket timeout in seconds (slow-client guard)",
    )
    parser.add_argument(
        "--drain-deadline", type=float, default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM/SIGINT",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="live-update mode: start behind a synthetic upstream and let the watcher catch up",
    )
    parser.add_argument(
        "--behind", type=int, default=8,
        help="with --watch: how many versions behind upstream to start",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=5.0,
        help="with --watch: seconds between upstream polls",
    )
    parser.add_argument(
        "--packed", action="store_true",
        help="serve off the packed zero-copy trie (mmap-shared with --cache-dir)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="pre-fork worker processes sharing the port (1 = single-process threaded server)",
    )
    parser.add_argument(
        "--no-reuseport", action="store_true",
        help="with --workers: use the inherited-listener fallback instead of SO_REUSEPORT",
    )
    parser.add_argument(
        "--restart-budget", type=int, default=16,
        help="with --workers: total crash respawns before the supervisor gives up",
    )
    parser.add_argument(
        "--run-dir", default=None,
        help="with --workers: directory for the fleet's epoch bus (default: a temp dir)",
    )
    parser.add_argument("--verbose", action="store_true", help="log each request")
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test: serve on an ephemeral port, hit every endpoint, exit",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.smoke:
        return _smoke_main(args)

    if args.workers > 1:
        print("building history…", flush=True)
        supervisor = build_fleet(args)
        supervisor.start()
        mode = "SO_REUSEPORT" if supervisor.reuse_port else "inherited parent fd"
        print(
            f"psl-serve fleet: {args.workers} workers on {supervisor.url} "
            f"({mode}; epoch bus in {supervisor.bus.root})"
        )
        if supervisor.watcher is not None:
            print(
                f"watching upstream from the supervisor, polling every "
                f"{args.poll_interval:.1f}s (ingests publish to every worker)"
            )
        print("Ctrl-C to stop; SIGTERM drains the whole fleet")
        drained = supervisor.run()
        print("fleet drained cleanly" if drained else "fleet drain was not fully clean")
        return 0

    print("building history…", flush=True)
    started = time.perf_counter()
    server = build_server(args)
    active = server.registry.active
    packed_history = server.registry.packed_history
    if packed_history is None:
        mode = "dict tries"
    elif packed_history.mmap_shared:
        mode = f"packed mmap, {packed_history.nbytes / 1e6:.1f} MB shared"
    else:
        mode = f"packed in-heap, {packed_history.nbytes / 1e6:.1f} MB"
    print(
        f"psl-serve: {len(server.registry)} versions loaded in "
        f"{time.perf_counter() - started:.1f}s; active v{active.index} "
        f"({active.date}, {active.rule_count} rules; {mode})"
    )
    if server.watcher is not None:
        status = server.watcher.status()
        print(
            f"watching upstream: {status.versions_behind} version(s) behind, "
            f"polling every {args.poll_interval:.1f}s (state: {status.state.value})"
        )
        server.watcher.start()
    print(f"listening on {server.url}  (Ctrl-C to stop; SIGTERM drains)")
    drained = serve_forever(server, drain_deadline=args.drain_deadline)
    print("drained cleanly" if drained else "drain deadline elapsed with requests in flight")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
