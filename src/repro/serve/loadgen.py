"""Zipf-shaped HTTP load generation for the serving tier.

Top-list measurement work (Scheitle et al., PAPERS.md) shows web
traffic is head-heavy: a handful of hostnames dominate while a long
tail contributes one hit each.  That is exactly the load shape a
production PSL endpoint sees: the head repeats a few trie walks while
the tail spreads them over the whole list.  :class:`ZipfSampler`
reproduces it: hostname rank ``r`` is drawn with probability
proportional to ``1 / r**s``.

The generator drives *real* HTTP — ``http.client`` connections with
keep-alive, one per worker thread — because the quantity under test is
the served latency distribution, not the engine's in-process cost.
For multi-worker fleets the client itself can fork
(``processes=``) so a GIL-bound client does not become the bottleneck
it is trying to measure past.

Used three ways: ``make bench-serve`` gates p50/p99 and fleet
throughput scaling on it, ``examples/serve_load.py`` demonstrates it,
and ``python -m repro.serve.loadgen`` points it at any running server.
"""

from __future__ import annotations

import argparse
import bisect
import http.client
import json
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import quote, urlsplit

__all__ = [
    "LoadResult",
    "ZipfSampler",
    "percentile",
    "run_load",
]

DEFAULT_EXPONENT = 1.2  # head-heavy, matches observed top-list skew


class ZipfSampler:
    """Deterministic Zipf-ranked sampling over a fixed population.

    Rank ``r`` (1-based) gets weight ``1 / r**exponent``; sampling
    inverts the cumulative weight table with :func:`bisect.bisect_left`
    — O(log n) per draw, no numpy.  Determinism comes from the caller's
    ``random.Random`` seed, so a bench run is replayable.
    """

    def __init__(self, population: list[str], *, exponent: float = DEFAULT_EXPONENT) -> None:
        if not population:
            raise ValueError("population must be non-empty")
        self.population = list(population)
        self.exponent = exponent
        cumulative: list[float] = []
        total = 0.0
        for rank in range(1, len(self.population) + 1):
            total += 1.0 / rank**exponent
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng) -> str:
        point = rng.random() * self._total
        return self.population[bisect.bisect_left(self._cumulative, point)]

    def head_share(self, head: int) -> float:
        """Fraction of draws landing in the top ``head`` ranks."""
        head = min(head, len(self._cumulative))
        return self._cumulative[head - 1] / self._total


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(fraction * len(sorted_values))))
    return sorted_values[rank]


@dataclass(slots=True)
class LoadResult:
    """What one load run measured, percentiles precomputed."""

    requests: int
    failures: int
    elapsed_seconds: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float
    latencies_ms: list[float] = field(repr=False, default_factory=list)

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "failures": self.failures,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p90_ms": round(self.p90_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
        }

    def table(self) -> str:
        """A small aligned table for examples and CLI output."""
        rows = [
            ("requests", f"{self.requests}"),
            ("failures", f"{self.failures}"),
            ("elapsed", f"{self.elapsed_seconds:.2f} s"),
            ("throughput", f"{self.throughput_rps:,.0f} req/s"),
            ("p50", f"{self.p50_ms:.3f} ms"),
            ("p90", f"{self.p90_ms:.3f} ms"),
            ("p99", f"{self.p99_ms:.3f} ms"),
            ("max", f"{self.max_ms:.3f} ms"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def summarize(latencies_s: list[float], failures: int, elapsed: float) -> LoadResult:
    ordered = sorted(value * 1000.0 for value in latencies_s)
    return LoadResult(
        requests=len(ordered),
        failures=failures,
        elapsed_seconds=elapsed,
        p50_ms=percentile(ordered, 0.50),
        p90_ms=percentile(ordered, 0.90),
        p99_ms=percentile(ordered, 0.99),
        max_ms=ordered[-1] if ordered else 0.0,
        latencies_ms=ordered,
    )


def _client_thread(
    host: str,
    port: int,
    paths: list[str],
    latencies: list[float],
    failures: list[int],
) -> None:
    """One keep-alive connection working through its share of paths."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    failed = 0
    try:
        for path in paths:
            started = time.perf_counter()
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                ok = response.status == 200 and bool(body)
            except (OSError, http.client.HTTPException):
                # One reconnect attempt: a server-side worker respawn
                # legitimately severs keep-alive connections.
                connection.close()
                connection = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    ok = response.status == 200 and bool(body)
                except (OSError, http.client.HTTPException):
                    ok = False
            if ok:
                latencies.append(time.perf_counter() - started)
            else:
                failed += 1
    finally:
        connection.close()
    failures.append(failed)


def _run_threads(host: str, port: int, shares: list[list[str]]) -> tuple[list[float], int, float]:
    latencies: list[float] = []
    failures: list[int] = []
    threads = [
        threading.Thread(
            target=_client_thread, args=(host, port, share, latencies, failures)
        )
        for share in shares
        if share
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return latencies, sum(failures), elapsed


def run_load(
    base_url: str,
    hostnames: list[str],
    *,
    requests: int = 2000,
    concurrency: int = 8,
    processes: int = 1,
    exponent: float = DEFAULT_EXPONENT,
    seed: int = 1,
    version: str | None = None,
) -> LoadResult:
    """Drive ``requests`` Zipf-sampled ``/site`` lookups at ``base_url``.

    ``concurrency`` keep-alive connections run in threads; with
    ``processes > 1`` the client forks first and each process runs its
    own thread pool, so client-side GIL contention cannot mask a
    multi-worker server's capacity.  The paths are pre-sampled (same
    seed → same traffic), then dealt round-robin to workers.
    """
    import random

    split = urlsplit(base_url)
    host, port = split.hostname or "127.0.0.1", split.port or 80
    sampler = ZipfSampler(hostnames, exponent=exponent)
    rng = random.Random(seed)
    suffix = f"&version={quote(str(version))}" if version is not None else ""
    paths = [
        f"/site?host={quote(sampler.sample(rng))}{suffix}" for _ in range(requests)
    ]
    concurrency = max(1, concurrency)
    shares = [paths[i::concurrency] for i in range(concurrency)]

    if processes <= 1 or not hasattr(os, "fork"):
        latencies, failed, elapsed = _run_threads(host, port, shares)
        return summarize(latencies, failed, elapsed)

    # Fork-based client fan-out: deal the per-connection shares across
    # processes; each child reports (latencies, failures) over a pipe.
    groups = [shares[i::processes] for i in range(processes)]
    children: list[tuple[int, int]] = []
    for group in groups:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            code = 1
            try:
                latencies, failed, _ = _run_threads(host, port, group)
                payload = json.dumps({"latencies": latencies, "failed": failed}).encode()
                with os.fdopen(write_fd, "wb") as sink:
                    sink.write(struct.pack("<Q", len(payload)))
                    sink.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        children.append((pid, read_fd))

    latencies_all: list[float] = []
    failed_all = 0
    started = time.perf_counter()
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as source:
            raw = source.read()
        os.waitpid(pid, 0)
        if len(raw) < 8:
            failed_all += 1  # child died before reporting
            continue
        (length,) = struct.unpack("<Q", raw[:8])
        report = json.loads(raw[8 : 8 + length])
        latencies_all.extend(report["latencies"])
        failed_all += report["failed"]
    elapsed = time.perf_counter() - started
    return summarize(latencies_all, failed_all, elapsed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Drive Zipf-distributed /site lookups at a running psl-serve.",
    )
    parser.add_argument("url", help="base URL, e.g. http://127.0.0.1:8080")
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--processes", type=int, default=1)
    parser.add_argument("--exponent", type=float, default=DEFAULT_EXPONENT)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--version", default=None, help="pin lookups to one PSL version")
    parser.add_argument(
        "--hosts-from",
        default=None,
        help="file with one hostname per line (default: a built-in mixed population)",
    )
    parser.add_argument("--json", action="store_true", help="print machine-readable JSON")
    args = parser.parse_args(argv)

    if args.hosts_from:
        with open(args.hosts_from, "r", encoding="utf-8") as handle:
            hostnames = [line.strip() for line in handle if line.strip()]
    else:
        # A small head + long synthetic tail: enough shape to exercise
        # a hot head and a cold tail without needing a corpus on disk.
        hostnames = [
            "www.example.com", "cdn.example.com", "app.example.co.uk",
            "user.github.io", "shop.example.org", "api.example.net",
        ] + [f"tail-{i}.example.com" for i in range(2000)]

    result = run_load(
        args.url,
        hostnames,
        requests=args.requests,
        concurrency=args.concurrency,
        processes=args.processes,
        exponent=args.exponent,
        seed=args.seed,
        version=args.version,
    )
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.table())
    return 0 if result.failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
