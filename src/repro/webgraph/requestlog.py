"""Streaming request-log synthesis at HTTP-Archive-like scales.

The snapshot synthesizer (:mod:`repro.webgraph.synthesis`) materializes
its whole universe — fine for the calibrated paper-exact populations,
hopeless at the paper's 498M-request regime.  This module is the
complementary generator for *bulk* classification workloads: an
unbounded stream of ``(page_host, request_host)`` records produced in
fixed-size **generation blocks**, each block regenerable independently
from ``(seed, block_index)`` alone.

Two properties make the stream usable as a reproducible benchmark
input:

* **Chunk-invariant content.**  Record ``i`` depends only on the
  config, never on how a consumer batches the stream.  The classify
  engine hands workers whole blocks, so any chunk size, worker count,
  or resume boundary sees byte-identical records.
* **Constant memory.**  Nothing is materialized: hostnames are derived
  from integer indices (no global uniqueness set), and each block's RNG
  is discarded when the block ends.

The simulated web mirrors the structures the paper's analysis keys on:
Zipf-ish popular plain sites with subdomain self-requests (first-party
under every list), shared tracker hosts (third-party under every
list), and tenant populations under real PRIVATE-division suffixes
(:mod:`repro.data.private_suffixes`) whose sibling-tenant requests flip
from first- to third-party exactly when the suffix rule enters the
history — the version-sensitive traffic the per-version sweep exists
to measure.  A configurable fraction of records carries a malformed
endpoint (empty labels, whitespace, IP literals…), exercising the
count-and-skip ingest path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.data.private_suffixes import all_known

#: Records at ``scale=1.0``; ``--scale 10`` is the 10M-record regime.
BASE_RECORDS = 1_000_000

#: Endpoint strings :func:`repro.net.hostname.normalize_or_reject`
#: refuses — every class the streaming counters must count-and-skip.
MALFORMED_HOSTS: tuple[str, ...] = (
    "",
    ".",
    "bad..host",
    "white space.example",
    "-leading.example.com",
    "bang!.example.net",
    "127.0.0.1",
    "x" * 300 + ".com",
)

_TLDS: tuple[str, ...] = (
    "com", "com", "com", "net", "org", "io", "de", "fr", "nl", "co",
)

_SUBS: tuple[str, ...] = ("www", "api", "cdn", "img", "static", "app", "assets")


@dataclass(frozen=True, slots=True)
class RequestLogConfig:
    """Shape of one synthetic request-log stream.

    ``scale`` multiplies both the record count (``BASE_RECORDS`` at
    1.0, unless ``records`` overrides it) and the size of the site
    universe, so larger runs see proportionally more *distinct*
    hostnames — the memory-pressure axis the scale harness probes.
    ``block_size`` is part of the stream's identity: changing it
    changes which records land in which block and therefore the RNG
    draws, so it is a config field, not a consumer choice.
    """

    seed: int = 20230701
    scale: float = 1.0
    records: int | None = None
    malformed_rate: float = 0.0005
    block_size: int = 65536

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.records is not None and self.records < 0:
            raise ValueError("records must be non-negative")
        if not 0.0 <= self.malformed_rate <= 1.0:
            raise ValueError("malformed_rate must be in [0, 1]")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")


def record_count(config: RequestLogConfig) -> int:
    """Total records in the stream ``config`` describes."""
    if config.records is not None:
        return config.records
    return max(1, round(BASE_RECORDS * config.scale))


def block_count(config: RequestLogConfig) -> int:
    """Number of generation blocks (the last one may be short)."""
    total = record_count(config)
    return max(1, -(-total // config.block_size))


@dataclass(frozen=True, slots=True)
class _Universe:
    """Derived population sizes; a pure function of the config."""

    plain_sites: int
    trackers: int
    operators: tuple[str, ...]
    tenants_per_operator: int


def _universe(config: RequestLogConfig) -> _Universe:
    scale = config.scale
    return _Universe(
        plain_sites=max(64, round(30_000 * scale)),
        trackers=max(8, round(400 * scale**0.5)),
        operators=tuple(record.suffix for record in all_known()),
        tenants_per_operator=max(4, round(250 * scale)),
    )


def iter_block(config: RequestLogConfig, index: int) -> Iterator[tuple[str, str]]:
    """Regenerate generation block ``index`` of the stream.

    Each block seeds its own :class:`random.Random` from
    ``"requestlog:{seed}:{index}"``, so blocks are independently
    addressable — the property chunk-granular resume rests on.

    One iteration of the block loop is one page visit: the page host
    plus its request hosts, all drawn before any of its records is
    yielded.  Popularity is log-uniform (``int(n ** random()) - 1``,
    rank-``k`` popularity ~ 1/k).  A quarter of visits are tenant
    visits: sibling-tenant and operator-apex requests are the
    version-sensitive rows (first-party until the operator's PRIVATE
    rule lands, third-party after).  The rest are plain visits:
    own-subdomain requests (always first-party) and occasionally
    another site's www (always third-party).  Either kind may add up
    to two tracker requests.

    The loop is this module's hot path, so it makes its integer draws
    with bound :meth:`~random.Random.getrandbits` rather than
    ``randint``/``choice``: a draw in ``[0, n)`` is ``getrandbits(k)``
    with ``k = n.bit_length()``, repeated while ``>= n``, which is
    exactly CPython's ``_randbelow`` behind both, so the stream consumes
    the same generator words in the same order (pinned by digest in the
    tests).
    """
    blocks = block_count(config)
    if not 0 <= index < blocks:
        raise ValueError(f"block index {index} out of range for {blocks} blocks")
    total = record_count(config)
    start = index * config.block_size
    remaining = min(config.block_size, total - start)
    rng = random.Random(f"requestlog:{config.seed}:{index}")
    universe = _universe(config)
    malformed_rate = config.malformed_rate
    random_ = rng.random
    bits = rng.getrandbits
    operators = universe.operators
    n_operators = len(operators)
    tenants = universe.tenants_per_operator
    plain_sites = universe.plain_sites
    trackers = universe.trackers
    tlds = _TLDS
    n_tlds = len(tlds)
    subs = _SUBS
    malformed = MALFORMED_HOSTS
    n3 = 3  # randint(1, 3) and randint(0, 2) both draw below 3
    n_sub = len(subs)
    n_bad = len(malformed)
    k3, k_sub, k_bad = n3.bit_length(), n_sub.bit_length(), n_bad.bit_length()
    while remaining > 0:
        roll = random_()
        if roll < 0.25:
            suffix = operators[int(n_operators ** random_()) - 1]
            page = f"tenant-{int(tenants ** random_()) - 1}.{suffix}"
            extra = bits(k3)
            while extra >= n3:
                extra = bits(k3)
            requests = [
                f"tenant-{int(tenants ** random_()) - 1}.{suffix}" for _ in range(extra + 1)
            ]
            requests.append(suffix)
        else:
            site = int(plain_sites ** random_()) - 1
            apex = f"site-{site}.{tlds[site % n_tlds]}"
            page = "www." + apex
            requests = [apex]
            extra = bits(k3)
            while extra >= n3:
                extra = bits(k3)
            for _ in range(extra):
                sub = bits(k_sub)
                while sub >= n_sub:
                    sub = bits(k_sub)
                requests.append(f"{subs[sub]}.{apex}")
            if roll > 0.85:
                site = int(plain_sites ** random_()) - 1
                requests.append(f"www.site-{site}.{tlds[site % n_tlds]}")
        extra = bits(k3)
        while extra >= n3:
            extra = bits(k3)
        for _ in range(extra):
            tracker = int(trackers ** random_()) - 1
            requests.append(f"pixel.tracker-{tracker}.{'com' if tracker % 3 else 'net'}")
        if len(requests) > remaining:
            del requests[remaining:]
        remaining -= len(requests)
        for request in requests:
            if malformed_rate and random_() < malformed_rate:
                bad = bits(k_bad)
                while bad >= n_bad:
                    bad = bits(k_bad)
                if random_() < 0.5:
                    yield malformed[bad], request
                else:
                    yield page, malformed[bad]
            else:
                yield page, request


def iter_records(config: RequestLogConfig) -> Iterator[tuple[str, str]]:
    """The whole stream, block by block, in order."""
    for index in range(block_count(config)):
        yield from iter_block(config, index)
