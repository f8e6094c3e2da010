"""The classify worker: one chunk × all versions, spilled to disk.

Each worker task classifies every distinct hostname of one
:class:`~repro.classify.columnar.ColumnarChunk` under every selected
PSL version.  The version source is :class:`VersionDeltas`: the first
version's rules and one :class:`~repro.psl.diff.RuleDelta` per later
version, cut from a :class:`~repro.history.store.VersionStore` (the
Figure 5-7 sweep, :func:`repro.analysis.boundaries.run_sweep`, and
``psl-classify``) or diffed from a ``PSLPAK1`` blob (the classify-bulk
benchmark harness only).  The engine builds
it into a :class:`VersionAxis`, an
:class:`~repro.psl.intervals.IntervalTrie` over those versions, once
per engine, and every task carries that one axis: the worker builds
nothing and walks each hostname once, its suffix-length segments over
all versions saying where its site changes.

**Why a spill file.**  The merge needs per-version site multisets
(distinct-site and largest-site numbers are global properties), but a
full site counter per version per chunk would be versions × chunks ×
O(sites) bytes — gigabytes at the 10M-record regime.  Site
assignments barely change between adjacent versions, so the spill is
**delta-encoded**: the first version stores the chunk's full
``site -> occurrences`` counter; every later version stores only the
occurrence-weighted difference against the previous version (empty for
the vast majority of version steps).  The merge replays the same
deltas against one global counter, version at a time, so *its* memory
is O(one version's site universe) too.

The spill file is the worker's bulk output; what travels back through
the executor (and into the checkpoint store) is a small
:class:`ChunkPartial` carrying the per-version scalars plus a
:class:`SpillRef` naming the spill and its SHA-256 — the validator
re-hashes the file, so a truncated spill reads as a failed task, never
as silent data loss.
"""

from __future__ import annotations

import hashlib
import operator
import os
import pickle
import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, count
from typing import BinaryIO

from repro.classify.columnar import ColumnarChunk, SpooledChunkRef, SyntheticChunkRef
from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.intervals import IntervalTrie
from repro.psl.packed import PackedHistory
from repro.psl.rules import Rule
from repro.runtime.checkpoint import AtomicFile
from repro.runtime.collector import collector_paused

_SPILL_MAGIC = b"PSLCLSP1"
_HEADER = struct.Struct("<8sI")
_U64 = 8  # bytes per little-endian entry offset


@dataclass(frozen=True, slots=True)
class SpillRef:
    """One spill file's identity: path, size, content digest."""

    path: str
    nbytes: int
    digest: str

    def verify(self) -> bool:
        """Re-hash the file; False on absence, truncation, or mismatch."""
        try:
            if os.path.getsize(self.path) != self.nbytes:
                return False
            digest = hashlib.sha256()
            with open(self.path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
            return digest.hexdigest() == self.digest
        except OSError:
            return False


@dataclass(frozen=True, slots=True)
class ChunkPartial:
    """One chunk's classification outcome across all selected versions.

    ``third_party`` and ``misclassified`` align with the task's
    ``version_indexes``; ``misclassified`` counts hostname occurrences
    whose site under that version differs from the baseline (latest
    list) site — the staleness-harm delta.
    """

    index: int
    records: int
    hostnames: int
    skipped_hosts: int
    skipped_pairs: int
    total_pairs: int
    third_party: tuple[int, ...]
    misclassified: tuple[int, ...]
    spill: SpillRef


@dataclass(frozen=True, slots=True)
class ClassifyTask:
    """Everything one worker invocation needs, in one pickle.

    ``axis`` is the engine's built version axis, shared by every task
    of its runs: the selected versions, the baseline (latest-list)
    version the misclassification delta is measured against, and the
    index over both.
    """

    ref: ColumnarChunk | SyntheticChunkRef | SpooledChunkRef
    axis: "VersionAxis"
    spill_dir: str

    @property
    def task_id(self) -> str:
        return self.ref.task_id


class SpillWriter:
    """Streams one pickled counter per filled version slot into the spill layout.

    Layout: magic, u32 version count, (count + 1) u64 entry offsets,
    then the entries.  An empty counter, and a slot :meth:`add` skips,
    is a zero-length entry with no pickle.  Offsets are backfilled after
    the last entry and the file lands through
    :class:`~repro.runtime.checkpoint.AtomicFile`, so readers only ever
    see complete spills.
    """

    def __init__(self, path: str, versions: int) -> None:
        self._file = AtomicFile(path)
        self._handle: BinaryIO = self._file.handle
        self._versions = versions
        self._offsets: list[int] = []
        self._handle.write(_HEADER.pack(_SPILL_MAGIC, versions))
        self._handle.write(b"\0" * _U64 * (versions + 1))

    def add(self, counter: dict[str, int], slot: int | None = None) -> None:
        """Write ``slot``'s entry (by default the slot after the last one written)."""
        written = len(self._offsets)
        slot = written if slot is None else slot
        if not written <= slot < self._versions:
            raise ValueError(f"version slot {slot} is already written or out of range")
        self._offsets += [self._handle.tell()] * (slot + 1 - written)
        if counter:
            self._handle.write(pickle.dumps(counter, protocol=pickle.HIGHEST_PROTOCOL))

    def finish(self) -> SpillRef:
        nbytes = self._handle.tell()
        self._offsets += [nbytes] * (self._versions + 1 - len(self._offsets))
        self._handle.seek(_HEADER.size)
        self._handle.write(struct.pack(f"<{self._versions + 1}Q", *self._offsets))
        self._handle.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: self._handle.read(1 << 20), b""):
            digest.update(block)
        self._file.commit()
        return SpillRef(path=self._file.path, nbytes=nbytes, digest=digest.hexdigest())

    def abort(self) -> None:
        self._file.discard()


class SpillReader:
    """Random access to one spill's per-version counter deltas.

    ``filled`` lists the slots whose entry is not zero-length; the rest
    read ``{}`` unpickled.  Older spills hold a pickled ``{}`` there.
    """

    def __init__(self, path: str) -> None:
        self._handle: BinaryIO = open(path, "rb")
        magic, versions = _HEADER.unpack(self._handle.read(_HEADER.size))
        if magic != _SPILL_MAGIC:
            raise ValueError(f"{path} is not a classify spill")
        self._offsets = struct.unpack(f"<{versions + 1}Q", self._handle.read(_U64 * (versions + 1)))
        self.versions = versions
        self.filled = tuple(compress(count(), map(operator.lt, self._offsets, self._offsets[1:])))

    def read(self, slot: int) -> dict[str, int]:
        """The counter (slot 0) or counter delta (later slots)."""
        if not 0 <= slot < self.versions:
            raise IndexError(f"version slot {slot} out of range")
        start, end = self._offsets[slot], self._offsets[slot + 1]
        if start == end:
            return {}
        self._handle.seek(start)
        return pickle.loads(self._handle.read(end - start))

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SpillReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True, slots=True)
class VersionDeltas:
    """The version axis in delta form: what :class:`VersionAxis` is built from.

    Its slots are the selected versions plus the baseline, ascending:
    slot 0 holds ``first_rules``, each later slot one :class:`RuleDelta`
    from the slot before, so the index never sees whether the versions
    came from a store or a packed blob.
    """

    version_indexes: tuple[int, ...]
    baseline_index: int
    first_rules: frozenset[Rule]
    deltas: tuple[RuleDelta, ...]

    @classmethod
    def from_store(
        cls, store: VersionStore, version_indexes: tuple[int, ...], baseline_index: int
    ) -> "VersionDeltas":
        slots = _axis(version_indexes, baseline_index)
        deltas = tuple(store.delta_between(older, newer) for older, newer in zip(slots, slots[1:]))
        return cls(version_indexes, baseline_index, store.rules_at(slots[0]), deltas)

    @classmethod
    def from_packed(
        cls, history: PackedHistory, version_indexes: tuple[int, ...], baseline_index: int
    ) -> "VersionDeltas":
        """Diff the axis's versions neighbour by neighbour (two rule sets
        beyond the first alive at a time); only for the engine's blob
        path, which only ``benchmarks/e2e/batch.py`` passes."""
        slots = _axis(version_indexes, baseline_index)
        first = previous = frozenset(history.trie(slots[0]).iter_rules())
        deltas = []
        for version_index in slots[1:]:
            rules = frozenset(history.trie(version_index).iter_rules())
            deltas.append(RuleDelta(added=rules - previous, removed=previous - rules))
            previous = rules
        return cls(version_indexes, baseline_index, first, tuple(deltas))


def _axis(version_indexes: tuple[int, ...], baseline_index: int) -> tuple[int, ...]:
    return tuple(sorted({*version_indexes, baseline_index}))


class VersionAxis:
    """The built version axis: the one value every task of an engine shares.

    ``index`` is the :class:`~repro.psl.intervals.IntervalTrie` over
    ``slots``, the selected versions plus the baseline.  In-process
    tasks walk this one object, so the segments the index resolves for
    one chunk serve every later chunk and run.  A pool task pickles the
    axis as the bytes of its first pickling (the index without its
    resolved segments), so shipping it costs a byte copy and a worker
    loads the built index.
    """

    __slots__ = ("version_indexes", "baseline_index", "slots", "index", "_pickled")

    def __init__(
        self, version_indexes: tuple[int, ...], baseline_index: int, index: IntervalTrie
    ) -> None:
        self.version_indexes = version_indexes
        self.baseline_index = baseline_index
        self.slots = _axis(version_indexes, baseline_index)
        self.index = index
        self._pickled: bytes | None = None

    @classmethod
    @collector_paused()
    def build(cls, source: VersionDeltas) -> "VersionAxis":
        return cls(
            source.version_indexes,
            source.baseline_index,
            IntervalTrie(source.first_rules, source.deltas),
        )

    def __reduce__(self) -> tuple:
        # A pool pickles on its feeder thread while the parent may walk
        # the index; pickling reads only what no walk writes.
        if self._pickled is None:
            self._pickled = pickle.dumps(
                (self.version_indexes, self.baseline_index, self.index),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        return _load_axis, (self._pickled,)


def _load_axis(pickled: bytes) -> VersionAxis:
    return VersionAxis(*pickle.loads(pickled))


@collector_paused()
def classify_chunk(task: ClassifyTask) -> ChunkPartial:
    """Classify one chunk under every selected version.

    Each distinct hostname is walked once, through the axis's
    :class:`~repro.psl.intervals.IntervalTrie`; its segments give its
    site under the first selected version and the baseline, and the
    slots where that site flips.  Slot 0 pays one pass over the chunk;
    flips are kept only for slots that have any, and only those update
    the tallies and write a spill delta, so a sweep costs O(hosts +
    flips), not O(versions).  The collector is paused: all the chunk
    allocates lives until it returns and forms no cycle.
    """
    chunk = task.ref.load()
    axis = task.axis
    selected = axis.version_indexes
    slots = axis.slots
    # The selected slot a trie slot's change lands in: the first
    # selected version at or after it (``len(selected)`` when none).
    # Only an unselected baseline makes this other than the identity.
    lands = [bisect_left(selected, version_index) for version_index in slots]
    base_slot = slots.index(axis.baseline_index)
    segments_of = axis.index.segments
    occurrences = chunk.occurrences
    pages = chunk.pages
    requests = chunk.requests

    sites: list[str] = []
    base_sites: list[str] = []
    flips: dict[int, dict[int, str]] = {}
    for i, host in enumerate(chunk.hosts):
        labels = host.split(".")
        labels.reverse()
        segments = segments_of(labels)
        if len(segments) == 1:
            take = segments[0][1] + 1
            site = host if take >= len(labels) else ".".join(labels[take - 1 :: -1])
            sites.append(site)
            base_sites.append(site)
            continue
        # Same site rule as site_for_reversed, per segment; the last
        # segment landing on a selected slot holds its site.
        later: dict[int, str] = {}
        for start, length in segments:
            later[lands[start]] = site = ".".join(labels[min(length + 1, len(labels)) - 1 :: -1])
            if start <= base_slot:
                base_site = site
        first_site = later.pop(0)
        later.pop(len(selected), None)
        sites.append(first_site)
        base_sites.append(base_site)
        previous = first_site
        for slot, site in later.items():
            if site != previous:
                flips.setdefault(slot, {})[i] = site
                previous = site

    os.makedirs(task.spill_dir, exist_ok=True)
    writer = SpillWriter(os.path.join(task.spill_dir, f"{task.task_id}.spill"), len(selected))
    try:
        # Slot 0: full counters.  Zero-occurrence hosts (a snapshot
        # chunk's foreign request hosts) count for third-party pairs
        # only; they never enter a site counter.
        full: dict[str, int] = {}
        get = full.get
        for site, occurrence in zip(sites, occurrences):
            if occurrence:
                full[site] = get(site, 0) + occurrence
        writer.add(full)
        # Per-slot tally changes; the running sums carry them over empty slots.
        site_of = sites.__getitem__
        third_party, misclassified = [0] * len(selected), [0] * len(selected)
        third_party[0] = sum(map(operator.ne, map(site_of, pages), map(site_of, requests)))
        misclassified[0] = sum(compress(occurrences, map(operator.ne, sites, base_sites)))

        # Host -> positions of the pairs it is in, for flipping hosts.
        # ``compress`` picks the positions whose endpoint flips at C
        # speed, so the Python loop runs per flipping endpoint, not per
        # pair; positions are used as a set, so their order is free.
        pair_index: dict[int, list[int]] = {i: [] for i in set().union(*flips.values())}
        if pair_index:
            flipping = pair_index.__contains__
            for column in (pages, requests):
                for position in compress(count(), map(flipping, column)):
                    pair_index[column[position]].append(position)
        for slot in sorted(flips):
            changes = flips[slot]
            tp = mis = 0
            for position in {p for i in changes for p in pair_index[i]}:
                page, request = pages[position], requests[position]
                tp += (
                    changes.get(page, sites[page]) != changes.get(request, sites[request])
                ) - (sites[page] != sites[request])
            delta: dict[str, int] = {}
            get = delta.get
            for i, new_site in changes.items():
                occurrence = occurrences[i]
                old_site, base_site = sites[i], base_sites[i]
                delta[old_site] = get(old_site, 0) - occurrence
                delta[new_site] = get(new_site, 0) + occurrence
                mis += ((new_site != base_site) - (old_site != base_site)) * occurrence
                sites[i] = new_site
            writer.add({site: d for site, d in delta.items() if d}, slot)
            third_party[slot], misclassified[slot] = tp, mis
        spill = writer.finish()
    except BaseException:
        writer.abort()
        raise

    return ChunkPartial(
        index=chunk.index,
        records=chunk.records,
        hostnames=chunk.hostnames,
        skipped_hosts=chunk.skipped_hosts,
        skipped_pairs=chunk.skipped_pairs,
        total_pairs=len(pages),
        third_party=tuple(accumulate(third_party)),
        misclassified=tuple(accumulate(misclassified)),
        spill=spill,
    )


def partial_validator(versions: int):
    """Parent-side validator: shape plus spill integrity.

    Rejecting here turns a corrupt result (or a checkpoint whose spill
    file has since been damaged) into an ordinary retryable failure.
    """

    def validate(value: object) -> bool:
        return (
            isinstance(value, ChunkPartial)
            and len(value.third_party) == versions
            and len(value.misclassified) == versions
            and value.spill.verify()
        )

    return validate
