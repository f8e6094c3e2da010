"""PERF — the serving layer: resident snapshots, batch amortization, fleet scaling.

Gates guarding ``repro.serve`` (ISSUE 5 + ISSUE 9 acceptance):

* **resident singles >= 50x per-request rebuild** — an engine lookup
  over the resident snapshot (uncached: normalize + one trie walk)
  must beat the naive no-snapshot service design (checkout the rule
  set and rebuild the trie per request, i.e.
  ``PublicSuffixList(rules).match(host)``) by at least 50x per
  lookup.  This is the whole point of immutable resident snapshots:
  the trie build is paid once per version, not once per request.
* **batch >= 5x singles per hostname** — over real HTTP on an
  ephemeral port, answering N hostnames through one ``/batch`` POST
  must cost at most 1/5th per hostname of N separate ``/site`` GETs.
  Request framing dominates single lookups; the batch API exists to
  amortize it.
* **fleet throughput and latency** — Zipf-shaped load from
  :mod:`repro.serve.loadgen` against a real 4-worker pre-fork fleet,
  gating zero failed requests and p99 under budget.  The >= 2.5x
  single-worker scaling gate only binds on hosts with >= 4 CPU cores:
  worker processes cannot multiply throughput past the physical core
  count, so on smaller hosts the gate degrades (honestly) to a
  bounded-overhead check — the fleet must still deliver a stated
  fraction of single-worker throughput.
* **fleet resident memory < 2x single-worker** — the whole point of
  the mmap-shared ``PSLPAK1`` buffer: four processes over one blob
  must not cost four times the memory.  Measured as summed
  proportional-set-size (Pss) from ``/proc/<pid>/smaps_rollup``, which
  counts shared pages once across the fleet.

* **per-request layer split (no gate)** — µs per ``GET /site`` in
  process, through ``RequestCore.handle`` + ``Response.encoded`` (the
  request core, engine and trie walk) and through the transport's
  ``_Handler._exchange`` over an in-memory stream with a stub core
  (the HTTP loop's own parse and write).  The traced end-to-end serve
  runs cannot split these two, so this record is where they show.

``BENCH_SERVE_SMOKE=1`` shrinks the load so ``make check`` can run the
fleet path in seconds; the scaling ratio is then too noisy to gate, so
smoke mode asserts only the functional contracts (zero failures, p99
budget, memory sharing).
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from benchmarks.conftest import BENCH_SEED, save_artifact
from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.psl.list import PublicSuffixList
from repro.serve.core import Request, RequestCore, Response
from repro.serve.engine import QueryEngine
from repro.serve.http import PslServer, _Handler
from repro.serve.snapshots import SnapshotRegistry

pytestmark = pytest.mark.bench

MIN_CACHED_VS_REBUILD = 50.0
MIN_BATCH_VS_SINGLES = 5.0

SMOKE = os.environ.get("BENCH_SERVE_SMOKE") == "1"

CACHED_LOOKUPS = 2_000 if SMOKE else 20_000
REBUILD_LOOKUPS = 2 if SMOKE else 5
HTTP_SINGLES = 50 if SMOKE else 150
HTTP_BATCH_ROUNDS = 2 if SMOKE else 5
LAYER_REQUESTS = 2_000 if SMOKE else 20_000
LAYER_ROUNDS = 3 if SMOKE else 7

# -- fleet gates -------------------------------------------------------------
FLEET_WORKERS = 4
LOAD_REQUESTS = 600 if SMOKE else 6_000
LOAD_CONCURRENCY = 8
#: p99 budget for a /site lookup over loopback HTTP (generous: the
#: steady state measures ~2-11 ms under 8-way concurrency on one
#: core).  Smoke runs issue so few requests that the p99 lands inside
#: the connection-establishment burst, so the budget widens there.
P99_BUDGET_MS = 250.0 if SMOKE else 50.0
#: Binds when the host has >= FLEET_WORKERS cores (the ISSUE 9 gate).
MIN_FLEET_SCALING = 2.5
#: Binds everywhere else: on a core-starved host N workers cannot beat
#: one, but the fleet machinery must not cost more than half the
#: single-worker throughput either.
MIN_FLEET_FRACTION = 0.5
MAX_FLEET_MEMORY_RATIO = 2.0


@pytest.fixture(scope="module")
def history():
    return synthesize_history(SynthesisConfig(seed=BENCH_SEED))


@pytest.fixture(scope="module")
def hostnames(history):
    """Zipf-repeating traffic over suffixes the final list really has."""
    psl = history.checkout(-1)
    suffixes = [rule.name for rule in psl.rules if "*" not in rule.text][:2_000]
    rng = random.Random(BENCH_SEED)
    distinct = [
        f"www{index}.site{index % 97}.{rng.choice(suffixes)}"
        for index in range(2_000)
    ]
    # Zipf-ish: heavy repetition of a small head, long sparse tail.
    traffic = []
    for position in range(CACHED_LOOKUPS):
        if position % 10 < 8:
            traffic.append(distinct[position % 100])
        else:
            traffic.append(distinct[position % len(distinct)])
    return traffic


def test_bench_cached_lookup_vs_trie_rebuild(history, hostnames):
    registry = SnapshotRegistry(history)
    engine = QueryEngine(registry)
    rules = history.rules_at(-1)

    # One warm-up pass, then time the steady state.
    for host in hostnames[:2_000]:
        engine.site(host)
    started = time.perf_counter()
    for host in hostnames:
        engine.site(host)
    lookup_per = (time.perf_counter() - started) / len(hostnames)

    # The no-snapshot baseline: every request rebuilds the trie.
    started = time.perf_counter()
    for host in hostnames[:REBUILD_LOOKUPS]:
        PublicSuffixList(rules).match(host)
    rebuild_per = (time.perf_counter() - started) / REBUILD_LOOKUPS

    speedup = rebuild_per / lookup_per
    lines = [
        f"resident engine lookup: {lookup_per * 1e6:8.2f} µs/hostname",
        f"rebuild-per-request:    {rebuild_per * 1e3:8.2f} ms/hostname "
        f"({len(rules)} rules)",
        f"speedup:                {speedup:8.0f}x   (gate: >= {MIN_CACHED_VS_REBUILD:.0f}x)",
    ]
    print()
    for line in lines:
        print("  " + line)
    save_artifact("bench_perf_serve_cached.txt", "\n".join(lines) + "\n")
    assert speedup >= MIN_CACHED_VS_REBUILD


def test_bench_batch_amortizes_http_overhead(history, hostnames):
    registry = SnapshotRegistry(history)
    engine = QueryEngine(registry)
    server = PslServer(("127.0.0.1", 0), registry, engine=engine, max_inflight=64)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = server.url
        batch_hosts = hostnames[:HTTP_SINGLES]

        def get(path: str) -> None:
            with urllib.request.urlopen(base + path, timeout=30) as response:
                response.read()

        def post_batch(hosts: list[str]) -> None:
            payload = json.dumps({"hostnames": hosts}).encode()
            request = urllib.request.Request(
                base + "/batch", data=payload,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                response.read()

        # Warm: sockets, caches, code paths.
        get(f"/site?host={batch_hosts[0]}")
        post_batch(batch_hosts)

        started = time.perf_counter()
        for host in batch_hosts:
            get(f"/site?host={host}")
        singles_per = (time.perf_counter() - started) / len(batch_hosts)

        started = time.perf_counter()
        for _ in range(HTTP_BATCH_ROUNDS):
            post_batch(batch_hosts)
        batch_per = (time.perf_counter() - started) / (
            HTTP_BATCH_ROUNDS * len(batch_hosts)
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    advantage = singles_per / batch_per
    lines = [
        f"single /site over HTTP: {singles_per * 1e6:8.1f} µs/hostname "
        f"({HTTP_SINGLES} requests)",
        f"/batch over HTTP:       {batch_per * 1e6:8.1f} µs/hostname "
        f"({HTTP_BATCH_ROUNDS} x {len(batch_hosts)}-hostname batches)",
        f"batch advantage:        {advantage:8.1f}x   (gate: >= {MIN_BATCH_VS_SINGLES:.0f}x)",
    ]
    print()
    for line in lines:
        print("  " + line)
    save_artifact("bench_perf_serve_batch.txt", "\n".join(lines) + "\n")
    assert advantage >= MIN_BATCH_VS_SINGLES


def _us_per_request(run, requests: int) -> tuple[float, list[float]]:
    """Median and every round's µs per request of ``run()`` (one warm round first)."""
    run()
    rounds = []
    for _ in range(LAYER_ROUNDS):
        started = time.perf_counter()
        run()
        rounds.append((time.perf_counter() - started) / requests * 1e6)
    return statistics.median(rounds), rounds


def test_bench_site_request_layers(history, hostnames):
    """µs per GET /site: the request core in process, and the transport alone."""
    core = RequestCore(SnapshotRegistry(history))
    targets = [f"/site?host={host}" for host in hostnames[:LAYER_REQUESTS]]

    def core_round() -> None:
        for target in targets:
            core.handle(Request("GET", target)).encoded()

    core_us, core_rounds = _us_per_request(core_round, len(targets))

    # The transport over an in-memory stream: a stub core answers every
    # request with one fixed /site body, and the writes are dropped.
    body = core.handle(Request("GET", targets[0])).encoded()
    stub = SimpleNamespace(handle=lambda request: Response(200, body))
    wire = b"".join(
        b"GET %s HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n\r\n" % target.encode()
        for target in targets
    )
    handler = object.__new__(_Handler)
    handler.server = SimpleNamespace(
        core=stub, quiet=True, _date_line=lambda: b"Date: Thu, 01 Jan 2026 00:00:00 GMT\r\n"
    )
    handler.connection = SimpleNamespace(sendall=lambda data: None)

    def transport_round() -> None:
        handler.rfile = io.BytesIO(wire)
        while handler._exchange():
            pass

    transport_us, transport_rounds = _us_per_request(transport_round, len(targets))
    lines = [
        f"GET /site, {len(targets)} requests x {LAYER_ROUNDS} rounds (median; every round)",
        f"RequestCore.handle + encoded: {core_us:6.2f} µs/request   "
        + " ".join(f"{value:.2f}" for value in core_rounds),
        f"_Handler._exchange, stub core: {transport_us:6.2f} µs/request   "
        + " ".join(f"{value:.2f}" for value in transport_rounds),
    ]
    print()
    for line in lines:
        print("  " + line)
    save_artifact("bench_perf_serve_layers.txt", "\n".join(lines) + "\n")
    assert core.requests_total.value(endpoint="/site", status="200") == (
        len(targets) * (LAYER_ROUNDS + 1) + 1
    )


# ---------------------------------------------------------------------------
# Fleet gates (ISSUE 9): throughput scaling, p99, shared resident memory
# ---------------------------------------------------------------------------

def _pss_bytes(pid: int) -> int | None:
    """Proportional set size of one process, or None off-Linux.

    Pss charges each shared page 1/N to each of its N mappers, so the
    *sum* over the fleet counts the shared packed blob (and every
    still-COW interpreter page) exactly once — the honest measure of
    what the fleet costs the machine.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


@pytest.fixture(scope="module")
def packed_world(history, tmp_path_factory):
    """The packed history as an mmap-loadable blob on disk."""
    from repro.psl.packed import PackedHistory, pack_history

    path = tmp_path_factory.mktemp("fleet") / "history.pslpak"
    path.write_bytes(pack_history(history))
    return history, str(path)


@pytest.fixture(scope="module")
def load_hosts(hostnames):
    """A de-duplicated population for the Zipf sampler (it re-skews)."""
    seen: dict[str, None] = {}
    for host in hostnames:
        seen.setdefault(host)
    return list(seen)


def _start_fleet(history, blob_path: str, workers: int, run_dir: str):
    from repro.psl.packed import PackedHistory
    from repro.serve.cli import wait_until_up
    from repro.serve.fleet import FleetConfig, FleetSupervisor

    supervisor = FleetSupervisor(
        history,
        config=FleetConfig(
            workers=workers,
            port=0,
            run_dir=run_dir,
            drain_deadline=5.0,
        ),
        packed=PackedHistory.load(blob_path),
    )
    supervisor.start()
    assert wait_until_up(supervisor.url, timeout=20)
    return supervisor


def _drive(url: str, population: list[str], *, requests: int):
    from repro.serve.loadgen import run_load

    # One warm pass for sockets and page faults, then the measured run.
    run_load(url, population, requests=max(50, requests // 10),
             concurrency=LOAD_CONCURRENCY, seed=BENCH_SEED)
    return run_load(url, population, requests=requests,
                    concurrency=LOAD_CONCURRENCY, seed=BENCH_SEED + 1)


def test_bench_fleet_throughput_and_latency(packed_world, load_hosts, tmp_path):
    from repro.psl.packed import PackedHistory
    from repro.serve.fleet import fork_available

    if not fork_available():  # pragma: no cover - POSIX-only fleet
        pytest.skip("fleet requires os.fork")
    history, blob_path = packed_world

    # Single-worker baseline: the plain threaded server over the same
    # mmap-loaded blob.
    registry = SnapshotRegistry(history, packed=PackedHistory.load(blob_path))
    engine = QueryEngine(registry)
    single_server = PslServer(("127.0.0.1", 0), registry, engine=engine, max_inflight=64)
    accept = threading.Thread(target=single_server.serve_forever, daemon=True)
    accept.start()
    try:
        single = _drive(single_server.url, load_hosts, requests=LOAD_REQUESTS)
    finally:
        single_server.shutdown()
        single_server.server_close()
        accept.join(timeout=5)

    supervisor = _start_fleet(
        history, blob_path, FLEET_WORKERS, str(tmp_path / "run")
    )
    try:
        fleet = _drive(supervisor.url, load_hosts, requests=LOAD_REQUESTS)
    finally:
        assert supervisor.drain()

    cores = os.cpu_count() or 1
    scaling = fleet.throughput_rps / max(single.throughput_rps, 1e-9)
    lines = [
        f"single worker:   {single.throughput_rps:8,.0f} req/s   "
        f"p50 {single.p50_ms:6.2f} ms   p99 {single.p99_ms:6.2f} ms   "
        f"({single.requests} reqs, {single.failures} failed)",
        f"{FLEET_WORKERS}-worker fleet:  {fleet.throughput_rps:8,.0f} req/s   "
        f"p50 {fleet.p50_ms:6.2f} ms   p99 {fleet.p99_ms:6.2f} ms   "
        f"({fleet.requests} reqs, {fleet.failures} failed)",
        f"scaling:         {scaling:8.2f}x on {cores} CPU core(s)"
        + (
            f"   (gate: >= {MIN_FLEET_SCALING}x)"
            if cores >= FLEET_WORKERS
            else f"   (core-starved host: gate degrades to >= {MIN_FLEET_FRACTION}x)"
        ),
        f"p99 budget:      {fleet.p99_ms:8.2f} ms   (gate: <= {P99_BUDGET_MS:.0f} ms)",
    ]
    print()
    for line in lines:
        print("  " + line)
    save_artifact("bench_perf_serve_fleet.txt", "\n".join(lines) + "\n")

    assert single.failures == 0 and fleet.failures == 0
    assert fleet.p99_ms <= P99_BUDGET_MS
    if not SMOKE:
        if cores >= FLEET_WORKERS:
            assert scaling >= MIN_FLEET_SCALING
        else:
            assert scaling >= MIN_FLEET_FRACTION


def test_bench_fleet_memory_shares_the_packed_blob(packed_world, load_hosts, tmp_path):
    from repro.serve.fleet import fork_available

    if not fork_available():  # pragma: no cover - POSIX-only fleet
        pytest.skip("fleet requires os.fork")
    history, blob_path = packed_world

    def measured_fleet(workers: int, tag: str) -> int | None:
        supervisor = _start_fleet(
            history, blob_path, workers, str(tmp_path / f"run-{tag}")
        )
        try:
            # Touch every worker with real traffic so the measurement
            # reflects serving state, not a freshly forked blank.
            _drive(supervisor.url, load_hosts, requests=max(200, LOAD_REQUESTS // 10))
            sizes = [_pss_bytes(pid) for pid in supervisor.alive_pids()]
            if any(size is None for size in sizes):
                return None
            return sum(sizes)  # type: ignore[arg-type]
        finally:
            assert supervisor.drain()

    single_pss = measured_fleet(1, "single")
    fleet_pss = measured_fleet(FLEET_WORKERS, "fleet")
    if single_pss is None or fleet_pss is None:
        pytest.skip("/proc/<pid>/smaps_rollup unavailable (non-Linux host)")

    ratio = fleet_pss / max(single_pss, 1)
    lines = [
        f"1-worker resident (Pss):          {single_pss / 1e6:8.1f} MB",
        f"{FLEET_WORKERS}-worker fleet resident (sum Pss): {fleet_pss / 1e6:8.1f} MB",
        f"ratio: {ratio:5.2f}x   (gate: < {MAX_FLEET_MEMORY_RATIO:.0f}x — "
        f"the packed blob and COW pages are shared, not copied)",
    ]
    print()
    for line in lines:
        print("  " + line)
    save_artifact("bench_perf_serve_fleet_memory.txt", "\n".join(lines) + "\n")
    assert ratio < MAX_FLEET_MEMORY_RATIO
