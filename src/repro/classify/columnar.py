"""Columnar request-log chunks: the classify engine's unit of work.

A raw request log is a stream of ``(page_host, request_host)`` string
pairs.  Classifying it under ~100 PSL versions would walk the trie
once per *endpoint occurrence* per version; real logs are heavily
Zipf-skewed, so the columnar form pays normalization and label
splitting once per **distinct** hostname per chunk and stores the
record structure as integer columns:

* ``hosts`` — distinct normalized hostnames, first-seen order;
* ``occurrences[i]`` — how many endpoint occurrences host ``i`` has
  (site counting is per-occurrence, matching
  :func:`repro.webgraph.stream.count_sites_streaming`);
* ``pages``/``requests`` — per valid record, indexes into ``hosts``.

Ingest admission is :func:`repro.net.hostname.normalize_or_reject`,
the same gate the serving and streaming layers use: a malformed
endpoint bumps ``skipped_hosts`` (and its record ``skipped_pairs``)
instead of aborting the chunk, with semantics chosen to be
bit-compatible with the streaming oracles — each valid endpoint still
counts as a hostname occurrence even when its partner is malformed,
exactly what :func:`count_sites_streaming` sees when fed the flattened
endpoint stream.

Workers receive chunk *references*, not chunks: a
:class:`SyntheticChunkRef` regenerates its records from the
deterministic generator (:mod:`repro.webgraph.requestlog`) so the task
pickle is a few hundred bytes at any scale; a :class:`SpooledChunkRef`
names a digest-verified pickle spooled by the parent for arbitrary
streams.  A web snapshot's universes (Figures 5-7) are cut by
:func:`snapshot_chunks` into in-memory chunks that travel as their own
reference.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.net.errors import HostnameError
from repro.net.hostname import normalize_or_reject
from repro.runtime.checkpoint import atomic_write_bytes
from repro.webgraph.requestlog import RequestLogConfig, iter_block


@dataclass(frozen=True, slots=True)
class ColumnarChunk:
    """One hostname-interned slice of a request log."""

    index: int
    hosts: tuple[str, ...]
    occurrences: array  # array("Q"), aligned with ``hosts``
    pages: array  # array("I"), host index per valid record
    requests: array  # array("I"), aligned with ``pages``
    skipped_hosts: int
    skipped_pairs: int

    @property
    def records(self) -> int:
        """Input records this chunk covers, malformed ones included."""
        return len(self.pages) + self.skipped_pairs

    @property
    def hostnames(self) -> int:
        """Valid endpoint occurrences (the site-counting total)."""
        return sum(self.occurrences)

    @property
    def task_id(self) -> str:
        return f"classify-{self.index}"

    def load(self) -> "ColumnarChunk":
        """An in-memory chunk is its own reference."""
        return self

    def __len__(self) -> int:
        return self.records


def columnar_chunk(index: int, records: Iterable[tuple[str, str]]) -> ColumnarChunk:
    """Intern one record batch into a :class:`ColumnarChunk`.

    Normalization results are memoized per raw string for the chunk's
    lifetime, so Zipf-repeated hosts pay :func:`normalize_or_reject`
    once, not once per occurrence.  The loop runs once per record, so a
    memo hit is one inlined dict lookup; only a miss takes the slow path
    (type check, normalize, intern).  A non-``str`` endpoint, hashable
    or not, is malformed.
    """
    host_index: dict[str, int] = {}
    hosts: list[str] = []
    occurrences = array("Q")
    pages = array("I")
    requests = array("I")
    skipped_hosts = 0
    skipped_pairs = 0
    # Raw string -> host index, or -1 for malformed; covers both the
    # normalization and the intern lookup for repeated raw spellings.
    memo: dict[str, int] = {}

    def miss(raw: object) -> int:
        if not isinstance(raw, str):
            return -1
        try:
            name = normalize_or_reject(raw)
        except HostnameError:
            slot = -1
        else:
            slot = host_index.get(name)
            if slot is None:
                slot = host_index[name] = len(hosts)
                hosts.append(name)
                occurrences.append(0)
        memo[raw] = slot
        return slot

    lookup = memo.get
    add_page = pages.append
    add_request = requests.append
    for page, request in records:
        try:
            p = lookup(page)
            r = lookup(request)
        except TypeError:  # an unhashable endpoint, so not a str
            p = r = None
        if p is None:
            p = miss(page)
        if r is None:
            r = miss(request)
        if p >= 0 and r >= 0:
            occurrences[p] += 1
            occurrences[r] += 1
            add_page(p)
            add_request(r)
            continue
        skipped_pairs += 1
        for slot in (p, r):
            if slot < 0:
                skipped_hosts += 1
            else:
                occurrences[slot] += 1
    return ColumnarChunk(
        index=index,
        hosts=tuple(hosts),
        occurrences=occurrences,
        pages=pages,
        requests=requests,
        skipped_hosts=skipped_hosts,
        skipped_pairs=skipped_pairs,
    )


def iter_columnar_chunks(
    records: Iterable[tuple[str, str]], chunk_records: int
) -> Iterator[ColumnarChunk]:
    """Cut a record stream into fixed-size columnar chunks.

    Every record lands in exactly one chunk and all downstream merges
    are commutative sums, so results are bit-identical for any
    ``chunk_records`` (the property tests pin this down).
    """
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    iterator = iter(records)
    for index in itertools.count():
        batch = list(itertools.islice(iterator, chunk_records))
        if not batch:
            return
        yield columnar_chunk(index, batch)


#: Distinct hostnames per :func:`snapshot_chunks` chunk.  A chunk
#: builds no trie (every chunk walks its engine's one version index),
#: so the size trades per-chunk spill, checkpoint and merge overhead
#: against peak memory.
SNAPSHOT_CHUNK_HOSTS = 16_384


def snapshot_chunks(
    hostnames: Iterable[str],
    pairs: Iterable[tuple[str, str]],
    hosts_per_chunk: int = SNAPSHOT_CHUNK_HOSTS,
) -> list[ColumnarChunk]:
    """Cut a web snapshot's hostname and request universes into chunks.

    Distinct hostnames are dealt out in first-seen order, each owned by
    exactly one chunk at occurrence 1, so the merged site counter counts
    distinct hostnames (Figures 5 and 7).  Each request pair lands in
    the chunk owning its page host; a request host owned by another
    chunk joins this one at occurrence 0 — walked for third-party
    counting (Figure 6), never counted as a hostname or site member.

    Hostnames are used exactly as given: a snapshot's universe is
    already normalized, so there is no ingest gate and no skipped rows.
    """
    if hosts_per_chunk < 1:
        raise ValueError("hosts_per_chunk must be positive")
    distinct = list(dict.fromkeys(hostnames))
    # A host's universe position p puts it in chunk p // hosts_per_chunk.
    position = dict(zip(distinct, range(len(distinct))))
    hosts = [distinct[i : i + hosts_per_chunk] for i in range(0, len(distinct), hosts_per_chunk)]
    owned = [len(chunk_hosts) for chunk_hosts in hosts]
    foreign: list[dict[str, int]] = [{} for _ in hosts]
    pages = [array("I") for _ in hosts]
    requests = [array("I") for _ in hosts]
    for page, request in pairs:
        try:
            chunk, page_index = divmod(position[page], hosts_per_chunk)
        except KeyError:
            raise ValueError(f"page host {page!r} is not in the hostname universe") from None
        request_index = position.get(request, -1) - chunk * hosts_per_chunk
        if not 0 <= request_index < hosts_per_chunk:
            request_index = foreign[chunk].get(request, -1)
            if request_index < 0:
                request_index = foreign[chunk][request] = len(hosts[chunk])
                hosts[chunk].append(request)
        pages[chunk].append(page_index)
        requests[chunk].append(request_index)
    return [
        ColumnarChunk(
            index=index,
            hosts=tuple(chunk_hosts),
            occurrences=array("Q", [1] * owned[index] + [0] * len(foreign[index])),
            pages=pages[index],
            requests=requests[index],
            skipped_hosts=0,
            skipped_pairs=0,
        )
        for index, chunk_hosts in enumerate(hosts)
    ]


@dataclass(frozen=True, slots=True)
class SyntheticChunkRef:
    """A chunk defined by generator coordinates — regenerated in the worker.

    ``block_count`` whole generation blocks starting at ``first_block``;
    because blocks are addressable by ``(config, block_index)`` alone,
    the chunk's records never depend on how many blocks ride in one
    task — the chunk-invariance the resume guarantee needs.
    """

    config: RequestLogConfig
    first_block: int
    block_count: int
    index: int

    @property
    def task_id(self) -> str:
        return f"classify-{self.index}"

    def load(self) -> ColumnarChunk:
        return columnar_chunk(
            self.index,
            itertools.chain.from_iterable(
                iter_block(self.config, block)
                for block in range(self.first_block, self.first_block + self.block_count)
            ),
        )


@dataclass(frozen=True, slots=True)
class SpooledChunkRef:
    """A chunk pickled to disk by the parent, digest-verified on load."""

    path: str
    digest: str
    nbytes: int
    index: int

    @property
    def task_id(self) -> str:
        return f"classify-{self.index}"

    def load(self) -> ColumnarChunk:
        with open(self.path, "rb") as handle:
            payload = handle.read()
        if len(payload) != self.nbytes or hashlib.sha256(payload).hexdigest() != self.digest:
            raise ValueError(f"spooled chunk {self.path} failed its digest check")
        chunk = pickle.loads(payload)
        if not isinstance(chunk, ColumnarChunk):
            raise ValueError(f"spooled chunk {self.path} is not a ColumnarChunk")
        return chunk


def spool_chunks(
    records: Iterable[tuple[str, str]], chunk_records: int, directory: str
) -> list[SpooledChunkRef]:
    """Columnarize a generic stream into digest-named spool files.

    The parent holds one chunk in memory at a time; workers get a
    :class:`SpooledChunkRef` each.  Re-spooling the same stream into
    the same directory rewrites identical files, so resumed runs see
    identical digests.
    """
    os.makedirs(directory, exist_ok=True)
    refs: list[SpooledChunkRef] = []
    for chunk in iter_columnar_chunks(records, chunk_records):
        payload = pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
        path = os.path.join(directory, f"chunk-{chunk.index:06d}.bin")
        atomic_write_bytes(path, payload)
        refs.append(
            SpooledChunkRef(
                path=path,
                digest=hashlib.sha256(payload).hexdigest(),
                nbytes=len(payload),
                index=chunk.index,
            )
        )
    return refs
