"""The two serving workloads: ``serve-site`` and ``serve-fleet-batch``.

Both launch ``psl-serve`` with its defaults plus deployment settings
only (port, ``--cache-dir``, ``--workers``), so a later change to a
default is measured rather than bypassed.  Load comes from this one
process: closed loops, one keep-alive connection per server process,
each driven by one thread, plus one thread that sends fleet swaps on
one-shot connections, as an operator's ``curl`` would.

Each server process shares one CPU with the thread that drives it
(:func:`placement`).  On a virtual machine an idle virtual CPU halts,
and waking it costs a round of the host's scheduler; with the client
and the server on different CPUs every request pays two such wake-ups.
On a busy host that made one connection's rate fall from about 3.4k to
a median of 1.2k requests/s, where CPU-bound jobs slowed far less.  On
a shared CPU every hand-off is a context switch on a running CPU.

Every load thread counts a request that fails or raises as failed: the
site loop reconnects and carries on, a fleet connection (bound to one
worker) stops.  An exception that still escapes a thread fails the run
(:func:`run_threads`), so a broken response never shows up as less
load.
"""

from __future__ import annotations

import bisect
import contextlib
import datetime
import functools
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator
from urllib.parse import quote

from benchmarks.e2e import world
from benchmarks.e2e.layers import serve_layers
from benchmarks.e2e.rawhttp import HttpResponse, RawConnection
from benchmarks.e2e.stats import distribution
from benchmarks.e2e.trace import load_records

ZIPF_EXPONENT = 1.2
#: Hostnames per ``/batch``.  A ``GET /site`` costs the server about
#: 400 us of CPU (serve-site trace) and each hostname in a batch about
#: 20 us more (fleet trace), so 256 is the smallest power of two at
#: which per-request transport is under a tenth of a batch's CPU: this
#: workload measures the engine, as serve-site measures transport.
BATCH_SIZE = 256
#: Fleet connections, one per worker.
FLEET_CONNECTIONS = 2
#: Share of a site run spent warming the server up before timing.
WARMUP_SHARE = 0.1
#: Share of a fleet run, at its end, that sends swaps.  The history's
#: versions are five days apart on average, so the read phase before
#: it, which alone feeds the gated metrics, sends none.  The swap phase
#: sends each swap once the last one is visible on both connections,
#: to time and check the EpochBus path (reported as ``fleet.swap_*``).
SWAP_SHARE = 0.2
CHECK_EVERY = 50
SETUP_STARTS = 3
#: Reasons kept per run for requests that raised (the count is exact).
KEPT_ERRORS = 5
HOST = "127.0.0.1"


# -- the server under test ------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _get_json(port: int, path: str) -> tuple[int, dict]:
    with RawConnection(HOST, port, timeout=5.0) as conn:
        response = conn.request("GET", path, close=True)
    return response.status, json.loads(response.body)


class Server:
    """One ``psl-serve`` process tree, launched and stopped by the benchmark."""

    def __init__(self, *, workers: int, trace_prefix: str | None = None) -> None:
        self.workers = workers
        self.trace_prefix = trace_prefix
        self.port = 0
        self.run_dir: str | None = None
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 60.0) -> float:
        """Launch; returns seconds from spawn to the first ready ``/healthz``."""
        self.port = free_port()
        args = ["--port", str(self.port), "--cache-dir", str(world.CACHE_DIR)]
        if self.workers > 1:
            # The epoch bus lives in the checkout, not the default temp dir.
            self.run_dir = str(world.TRACE_DIR / f"fleet-{os.getpid()}-{self.port}")
            args += ["--workers", str(self.workers), "--run-dir", self.run_dir]
        if self.trace_prefix is None:
            command = [sys.executable, "-m", "repro.serve.cli", *args]
        else:
            launcher = os.path.join(os.path.dirname(__file__), "serve_traced.py")
            command = [sys.executable, launcher, "--trace-prefix", self.trace_prefix, "--", *args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=world.REPO_ROOT, env=world.child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        limit = started + timeout
        while time.perf_counter() < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(f"psl-serve exited with {self.proc.returncode} during start-up")
            try:
                status, body = _get_json(self.port, "/healthz")
            except (OSError, ValueError):
                time.sleep(0.01)
                continue
            if status == 200 and self._ready(body):
                return time.perf_counter() - started
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("psl-serve did not become ready")

    def _ready(self, body: dict) -> bool:
        if self.workers == 1:
            return True
        fleet = body.get("fleet", {})
        return bool(fleet.get("agreement")) and fleet.get("reporting", 0) >= self.workers

    def worker_pids(self) -> dict[int, int]:
        """Fleet worker id -> pid; the single server is worker 0."""
        if self.workers == 1:
            return {0: self.proc.pid}
        _, body = _get_json(self.port, "/healthz")
        return {row["worker"]: row["pid"] for row in body["fleet"]["workers"]}

    def pids(self) -> list[int]:
        """The supervisor (or single server) plus every fleet worker."""
        workers = self.worker_pids() if self.workers > 1 else {}
        return [self.proc.pid, *workers.values()]

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)


def start_measured(workers: int) -> tuple[Server, list[float]]:
    """Start ``SETUP_STARTS`` times; keep the last server running."""
    setups: list[float] = []
    for attempt in range(SETUP_STARTS):
        server = Server(workers=workers)
        setups.append(server.start())
        if attempt < SETUP_STARTS - 1:
            server.stop()
    return server, setups


def scrape(conn: RawConnection) -> dict[str, float]:
    """Unlabelled samples of one ``/metrics`` page."""
    response = conn.request("GET", "/metrics")
    values: dict[str, float] = {}
    for line in response.body.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                pass
    return values


# -- CPU placement --------------------------------------------------------------


def placement(count: int) -> list[int | None]:
    """The CPU for each of ``count`` server processes and its load thread.

    ``None`` where the platform has no CPU affinity.
    """
    if not hasattr(os, "sched_getaffinity"):
        return [None] * count
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[k % len(cpus)] for k in range(count)]


def pin_process(pid: int, cpu: int | None) -> None:
    """Move every thread of ``pid`` to ``cpu``; threads they start inherit it."""
    if cpu is None:
        return
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


@contextlib.contextmanager
def pinned(cpu: int | None) -> Iterator[None]:
    """Run the calling thread on ``cpu`` for the block."""
    if cpu is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


# -- traffic ----------------------------------------------------------------


class Zipf:
    """Rank ``r`` drawn with weight ``1 / r**s``."""

    def __init__(self, population: list[str], exponent: float = ZIPF_EXPONENT) -> None:
        self.population = population
        self.cumulative = list(itertools.accumulate(1.0 / r**exponent for r in range(1, len(population) + 1)))

    def sample(self, rng: random.Random) -> str:
        return self.population[bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])]


@dataclass
class Checked:
    """Answers kept for the oracle, and requests that failed outright."""

    answers: list[tuple[str, int | None, str | None]] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    #: Why requests raised, one entry per failure that raised.
    errors: list[str] = field(default_factory=list)


def reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


def run_threads(targets: list[Callable[[], None]]) -> None:
    """Run each target on a thread of its own and wait for all of them.

    An exception that escapes a target is raised again here, on the
    caller's thread, so a load thread that dies fails the run.
    """
    died: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised below, after every join
            died.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if died:
        raise RuntimeError(f"{len(died)} load thread(s) died") from died[0]


def site_target(host: str) -> str:
    return "/site?host=" + quote(host, safe=".-")


def expect_ok(response: HttpResponse, what: str) -> None:
    if response.status != 200:
        raise ValueError(f"{what} answered {response.status}")


def batch_answer(response: HttpResponse, count: int) -> tuple[int, list[dict]]:
    """The version and the ``count`` answers of one ``/batch`` response.

    Read from the decoded JSON, so key order and separators do not
    matter; raises on a response that is not a complete batch.
    """
    expect_ok(response, "/batch")
    payload = json.loads(response.body)
    version, answers = payload["version"], payload["answers"]
    if not isinstance(version, int) or not isinstance(answers, list) or len(answers) != count:
        raise ValueError(f"/batch answered version {version!r} with a malformed answer list")
    return version, answers


def _population(snapshot: Any, seed: int) -> list[str]:
    hosts = list(snapshot.hostnames)
    random.Random(f"e2e-serve:{seed}").shuffle(hosts)
    return hosts


def _wrong(checked: Checked, oracles: dict[int, Any]) -> int:
    wrong = 0
    for host, version, site in checked.answers:
        oracle = oracles.get(version)
        if oracle is None or oracle.match(host).site != site:
            wrong += 1
    return wrong


def _failures(checked: Checked, wrong: int, extra: list[str] | None = None) -> list[str]:
    failures = [f"{wrong} answers differ from the oracle"] if wrong else []
    if checked.errors:
        first = ", ".join(checked.errors[:KEPT_ERRORS])
        failures.append(f"{len(checked.errors)} requests raised; first: {first}")
    return failures + (extra or [])


# -- serve-site ---------------------------------------------------------------


def closed_loop_site(port: int, duration: float, rng: random.Random, zipf: Zipf,
                     checked: Checked) -> tuple[list[float], float]:
    """Back-to-back ``GET /site`` from one caller for ``duration`` seconds.

    Returns the latency (ms) of every answered request and the seconds
    the loop ran; every ``CHECK_EVERY``-th answer is kept for the oracle.
    """
    latencies: list[float] = []
    conn: RawConnection | None = None
    start = time.perf_counter()
    deadline = start + duration
    try:
        while time.perf_counter() < deadline:
            host = zipf.sample(rng)
            checked.attempted += 1
            try:
                if conn is None or conn.closed:
                    conn = RawConnection(HOST, port)
                sent = time.perf_counter()
                response = conn.request("GET", site_target(host))
                done = time.perf_counter()
                expect_ok(response, "/site")
                if checked.attempted % CHECK_EVERY == 0:
                    answer = json.loads(response.body)
                    checked.answers.append((host, answer.get("version"), answer.get("site")))
            except Exception as exc:  # counted as failed; the load goes on
                checked.failed += 1
                checked.errors.append(reason(exc))
                if conn is not None:
                    conn.close()
                continue
            latencies.append((done - sent) * 1e3)
    finally:
        if conn is not None:
            conn.close()
    return latencies, time.perf_counter() - start


def site_load(server: Server, duration: float, seed: int, zipf: Zipf,
              checked: Checked) -> tuple[list[float], float]:
    """Warm-up, then the timed closed loop, on the server's CPU."""
    (cpu,) = placement(1)
    pin_process(server.proc.pid, cpu)
    rng = random.Random(f"e2e-site:{seed}")
    with pinned(cpu):
        closed_loop_site(server.port, WARMUP_SHARE * duration, rng, zipf, checked)
        return closed_loop_site(server.port, (1.0 - WARMUP_SHARE) * duration, rng, zipf, checked)


def serve_site(*, seed: int, seconds: float, trace: bool) -> dict:
    store, snapshot = world.load_inputs()
    latest = len(store) - 1
    oracles = {latest: store.checkout(latest)}
    zipf = Zipf(_population(snapshot, seed))
    if trace:
        return _site_traced(zipf, oracles, seed=seed, seconds=seconds)
    checked = Checked()
    server, setups = start_measured(1)
    try:
        pids = server.pids()
        latencies, elapsed = site_load(server, seconds, seed, zipf, checked)
        mem = world.pss_mib(pids)
    finally:
        server.stop()
    wrong = _wrong(checked, oracles)
    return {
        "attempted": checked.attempted,
        "failed": checked.failed + wrong,
        "failures": _failures(checked, wrong),
        "setups_s": setups,
        "mem_mib": mem,
        "throughput_per_s": len(latencies) / elapsed,
        "latency": distribution(latencies).to_json(),
        "size": {"checked_answers": len(checked.answers)},
    }


def _site_pass(server: Server, zipf: Zipf, seed: int, duration: float, checked: Checked) -> dict:
    """One site load on a started server, CPU and counters read from outside."""
    pids = server.pids()
    before = checked.attempted
    cpu0 = world.cpu_seconds(pids)
    latencies, _ = site_load(server, duration, seed, zipf, checked)
    cpu = world.cpu_seconds(pids) - cpu0
    with RawConnection(HOST, server.port) as conn:
        metrics = scrape(conn)
    return {
        "cpu_us_per_request": cpu * 1e6 / (checked.attempted - before),
        "cpu_s": cpu,
        "client_p50_ms": statistics.median(latencies),
        "cache_hit_ratio": metrics.get("psl_serve_cache_hit_ratio", 0.0),
        "rejected": metrics.get("psl_serve_rejected_total", 0.0),
    }


def _site_traced(zipf: Zipf, oracles: dict, *, seed: int, seconds: float) -> dict:
    """An untraced and a traced site load, half the run each."""
    checked = Checked()
    untraced = Server(workers=1)
    untraced.start()
    try:
        base = _site_pass(untraced, zipf, seed, seconds / 2, checked)
    finally:
        untraced.stop()
    prefix, server = _traced_server(1)
    try:
        traced = _site_pass(server, zipf, seed, seconds / 2, checked)
        time.sleep(0.6)  # two flush periods: every closed span is on disk
    finally:
        server.stop()
    layers = _trace_layers(prefix, traced, base, hosts_per_request=1)
    wrong = _wrong(checked, oracles)
    return {
        "attempted": checked.attempted,
        "failed": checked.failed + wrong,
        "failures": _failures(checked, wrong),
        "layers": layers,
    }


def _traced_server(workers: int) -> tuple[str, Server]:
    workload = "serve-site" if workers == 1 else "serve-fleet-batch"
    prefix = str(world.TRACE_DIR / f"trace-{workload}-{os.getpid()}")
    server = Server(workers=workers, trace_prefix=prefix)
    server.start()
    return prefix, server


def _trace_layers(prefix: str, traced: dict, base: dict, *, hosts_per_request: float) -> dict:
    directory, stem = os.path.split(prefix)
    paths = [os.path.join(directory, name) for name in os.listdir(directory) if name.startswith(stem + "-")]
    layers = serve_layers(load_records(paths))
    busy_s = layers.pop("_request_busy_s")
    layers["serve.cpu_us_per_request"] = base["cpu_us_per_request"]
    layers["serve.cpu_us_per_hostname"] = base["cpu_us_per_request"] / hosts_per_request
    layers["engine.cache_hit_ratio"] = base["cache_hit_ratio"]
    layers["core.rejected"] = base["rejected"]
    layers["trace.coverage"] = busy_s / traced["cpu_s"] if traced["cpu_s"] else 0.0
    layers["trace.server_share"] = layers["http.request_us"] / (traced["client_p50_ms"] * 1e3)
    layers["trace.overhead"] = traced["cpu_us_per_request"] / base["cpu_us_per_request"] - 1.0
    return layers


# -- serve-fleet-batch ----------------------------------------------------------


def year_older(store: Any) -> int:
    """The newest version at least a year older than the latest."""
    cutoff = store.latest.date - datetime.timedelta(days=365)
    older = store.version_at_date(cutoff)
    return older.index


def connect_distinct(port: int, attempts: int = 64) -> tuple[list[RawConnection], list[int]]:
    """Keep-alive connections served by distinct fleet workers, and those workers."""
    conns: list[RawConnection] = []
    seen: list[int] = []
    for _ in range(attempts):
        conn = RawConnection(HOST, port)
        worker = json.loads(conn.request("GET", "/healthz").body).get("worker")
        if worker in seen:
            conn.close()
            continue
        seen.append(worker)
        conns.append(conn)
        if len(conns) == FLEET_CONNECTIONS:
            return conns, seen
    for conn in conns:
        conn.close()
    raise RuntimeError("could not reach distinct fleet workers")


def fleet_load(port: int, population: list[str], targets: tuple[int, int], duration: float,
               seed: int, checked: Checked, worker_pids: dict[int, int] | None = None) -> dict:
    """Closed-loop ``/batch`` on two workers for ``duration`` seconds.

    With ``worker_pids`` (worker id -> pid), each worker shares a CPU
    with the thread that drives it.  Swaps alternate ``targets`` in the
    last ``SWAP_SHARE`` of the run; only batches answered before that
    swap phase are timed.
    """
    conns, workers = connect_distinct(port)
    cpus = placement(len(conns)) if worker_pids else [None] * len(conns)
    for cpu, worker in zip(cpus, workers):
        if cpu is not None:
            pin_process(worker_pids[worker], cpu)
    seen: list[list[tuple[float, int]]] = [[] for _ in conns]
    timed: list[float] = []  # latency (ms) of each batch answered in the read phase
    answered = [0] * len(conns)
    lock = threading.Lock()
    stop = threading.Event()
    swaps: list[float] = []
    swap_failures: list[str] = []
    start = time.perf_counter()
    swaps_from = start + (1.0 - SWAP_SHARE) * duration
    deadline = start + duration

    def drive(k: int) -> None:
        if cpus[k] is not None:
            os.sched_setaffinity(0, {cpus[k]})
        rng = random.Random(f"e2e-fleet:{seed}:{k}")
        conn = conns[k]
        try:
            while time.perf_counter() < deadline:
                batch = rng.choices(population, k=BATCH_SIZE)
                body = json.dumps({"hostnames": batch}).encode()
                sent = time.perf_counter()
                try:
                    response = conn.request("POST", "/batch", body)
                    done = time.perf_counter()
                    version, answers = batch_answer(response, len(batch))
                    # Every 10th batch, every 5th answer: 1 hostname in 50.
                    kept = [] if answered[k] % 10 else [
                        (batch[j], version, answers[j].get("site")) for j in range(k % 5, len(answers), 5)
                    ]
                except Exception as exc:  # counted as failed; this connection's worker is lost
                    with lock:
                        checked.attempted += 1
                        checked.failed += 1
                        checked.errors.append(reason(exc))
                    return
                answered[k] += 1
                seen[k].append((done, version))
                with lock:
                    checked.attempted += 1
                    if version not in targets:
                        checked.failed += 1
                        continue
                    if done < swaps_from:
                        timed.append((done - sent) * 1e3)
                    checked.answers += kept
        finally:
            stop.set()  # the swapper ends with the first connection to finish

    def swapper() -> None:
        if stop.wait(max(0.0, swaps_from - time.perf_counter())):
            return
        for turn in itertools.count(1):
            if stop.is_set():
                return
            target = targets[turn % 2]
            with lock:
                checked.attempted += 1
            try:
                with RawConnection(HOST, port) as conn:
                    expect_ok(conn.request("POST", f"/swap?version={target}", b"{}", close=True), "/swap")
            except Exception as exc:
                swap_failures.append(reason(exc))
                return
            visible = _await_visible(seen, target, time.perf_counter(), stop)
            if visible is None:
                if not stop.is_set():
                    swap_failures.append(f"swap to v{target} not visible on every connection")
                return
            swaps.append(visible * 1e3)

    run_threads([functools.partial(drive, k) for k in range(len(conns))] + [swapper])
    try:
        counters = [scrape(conn) for conn in conns]
    finally:
        for conn in conns:
            conn.close()
    hits = sum(c.get("psl_serve_cache_hits_total", 0.0) for c in counters)
    misses = sum(c.get("psl_serve_cache_misses_total", 0.0) for c in counters)
    checked.failed += len(swap_failures)
    return {
        "timed": timed,
        "read_s": swaps_from - start,
        "batches": sum(answered),
        "swap_visible_ms": swaps,
        "swap_failures": swap_failures,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rejected": sum(c.get("psl_serve_rejected_total", 0.0) for c in counters),
    }


def _await_visible(seen: list[list[tuple[float, int]]], target: int, since: float,
                   stop: threading.Event, timeout: float = 2.0) -> float | None:
    """Seconds from ``since`` to the first ``target`` answer on every connection."""
    limit = since + timeout
    firsts: list[float | None] = [None] * len(seen)
    cursors = [0] * len(seen)
    while time.perf_counter() < limit:
        for k, rows in enumerate(seen):
            while firsts[k] is None and cursors[k] < len(rows):
                done, version = rows[cursors[k]]
                cursors[k] += 1
                if done > since and version == target:
                    firsts[k] = done
        if all(first is not None for first in firsts):
            return max(firsts) - since
        if stop.is_set():
            return None
        time.sleep(0.001)
    return None


def serve_fleet(*, seed: int, seconds: float, trace: bool) -> dict:
    store, snapshot = world.load_inputs()
    latest = len(store) - 1
    older = year_older(store)
    oracles = {latest: store.checkout(latest), older: store.checkout(older)}
    population = sorted(snapshot.hostnames)
    targets = (latest, older)
    checked = Checked()
    if trace:
        untraced = Server(workers=2)
        untraced.start()
        base = _fleet_pass(untraced, population, targets, seconds / 2, seed, checked)
        prefix, server = _traced_server(2)
        traced = _fleet_pass(server, population, targets, seconds / 2, seed, checked)
        layers = _trace_layers(prefix, traced, base, hosts_per_request=BATCH_SIZE)
        layers["fleet.swap_visible_ms"] = base["swap_visible_p50_ms"]
        wrong = _wrong(checked, oracles)
        return {
            "attempted": checked.attempted,
            "failed": checked.failed + wrong,
            "failures": _failures(checked, wrong, base["swap_failures"] + traced["swap_failures"]),
            "layers": layers,
        }
    server, setups = start_measured(2)
    try:
        pids = server.pids()
        load = fleet_load(server.port, population, targets, seconds, seed, checked, server.worker_pids())
        mem = world.pss_mib(pids)
    finally:
        server.stop()
    wrong = _wrong(checked, oracles)
    latency = distribution(load["timed"])
    swaps = load["swap_visible_ms"]
    return {
        "attempted": checked.attempted,
        "failed": checked.failed + wrong,
        "failures": _failures(checked, wrong, load["swap_failures"]),
        "setups_s": setups,
        "mem_mib": mem,
        "throughput_per_s": BATCH_SIZE * latency.n / load["read_s"],
        "latency": latency.to_json(),
        "size": {"batches": latency.n, "batch_size": BATCH_SIZE, "swap_targets": list(targets),
                 "swaps": len(swaps), "swap_visible_p50_ms": statistics.median(swaps) if swaps else None,
                 "cache_hit_ratio": load["cache_hit_ratio"], "checked_answers": len(checked.answers)},
    }


def _fleet_pass(server: Server, population: list[str], targets: tuple[int, int], duration: float,
                seed: int, checked: Checked) -> dict:
    """One fleet load on a started server, CPU read from outside; stops the server."""
    try:
        pids = server.pids()
        cpu0 = world.cpu_seconds(pids)
        load = fleet_load(server.port, population, targets, duration, seed, checked, server.worker_pids())
        cpu = world.cpu_seconds(pids) - cpu0
        time.sleep(0.6)  # two flush periods: every closed span is on disk
    finally:
        server.stop()
    swaps = load["swap_visible_ms"]
    return {
        "cpu_us_per_request": cpu * 1e6 / max(1, load["batches"]),
        "cpu_s": cpu,
        "client_p50_ms": statistics.median(load["timed"]),
        "cache_hit_ratio": load["cache_hit_ratio"],
        "rejected": load["rejected"],
        "swap_visible_p50_ms": statistics.median(swaps) if swaps else 0.0,
        "swap_failures": load["swap_failures"],
    }


WORKLOADS = {"serve-site": serve_site, "serve-fleet-batch": serve_fleet}
