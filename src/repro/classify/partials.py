"""The classify worker: one chunk × all versions, spilled to disk.

Each worker task classifies every distinct hostname of one
:class:`~repro.classify.columnar.ColumnarChunk` under every selected
PSL version with :func:`repro.webgraph.sites.site_for_reversed` (the
same site function every other layer uses).  The tries come from one
of two version sources, chosen by the engine's input type:

* :class:`PackedVersions` — a ``PSLPAK1`` blob opened once per
  *process* and ``mmap``-ed, so a pool of N workers shares one
  physical copy of the whole history (``psl-classify``);
* :class:`StoreVersions` — a :class:`~repro.history.store.VersionStore`'s
  rule deltas replayed forward on one dict trie (the Figure 5-7
  sweep, :func:`repro.analysis.boundaries.run_sweep`).

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
from dataclasses import dataclass
from itertools import compress
from typing import BinaryIO, Iterator

from repro.classify.columnar import ColumnarChunk, SpooledChunkRef, SyntheticChunkRef
from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.packed import PackedHistory, PackedTrie
from repro.psl.rules import Rule
from repro.psl.trie import SuffixTrie
from repro.runtime.checkpoint import AtomicFile
from repro.webgraph.sites import site_for_reversed

_SPILL_MAGIC = b"PSLCLSP1"
_HEADER = struct.Struct("<8sI")
_OFFSET = struct.Struct("<Q")


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
    """Everything one worker invocation needs, in a small pickle.

    ``versions`` is the version source — a :class:`PackedVersions` or a
    :class:`StoreVersions` — naming the selected versions (ascending
    raw history indexes) and the baseline (latest-list) version the
    misclassification delta is measured against.
    """

    ref: ColumnarChunk | SyntheticChunkRef | SpooledChunkRef
    versions: "PackedVersions | StoreVersions"
    spill_dir: str

    @property
    def task_id(self) -> str:
        return self.ref.task_id


class SpillWriter:
    """Streams one pickled counter per version into the spill layout.

    Layout: magic, u32 version count, (count + 1) u64 blob offsets,
    then the concatenated pickle blobs.  Offsets are backfilled after
    the last blob and the file lands through
    :class:`~repro.runtime.checkpoint.AtomicFile`, so readers only ever
    see complete spills.
    """

    def __init__(self, path: str, versions: int) -> None:
        self._file = AtomicFile(path)
        self._handle: BinaryIO = self._file.handle
        self._versions = versions
        self._offsets: list[int] = []
        self._handle.write(_HEADER.pack(_SPILL_MAGIC, versions))
        self._handle.write(b"\0" * _OFFSET.size * (versions + 1))

    def add(self, counter: dict[str, int]) -> None:
        if len(self._offsets) >= self._versions + 1:
            raise ValueError("spill already holds every version")
        self._offsets.append(self._handle.tell())
        self._handle.write(pickle.dumps(counter, protocol=pickle.HIGHEST_PROTOCOL))

    def finish(self) -> SpillRef:
        if len(self._offsets) != self._versions:
            raise ValueError(
                f"spill holds {len(self._offsets)} versions, expected {self._versions}"
            )
        nbytes = self._handle.tell()
        self._offsets.append(nbytes)
        self._handle.seek(_HEADER.size)
        for offset in self._offsets:
            self._handle.write(_OFFSET.pack(offset))
        self._handle.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: self._handle.read(1 << 20), b""):
            digest.update(block)
        self._file.commit()
        return SpillRef(path=self._file.path, nbytes=nbytes, digest=digest.hexdigest())

    def abort(self) -> None:
        self._file.discard()


class SpillReader:
    """Random access to one spill's per-version counter deltas."""

    def __init__(self, path: str) -> None:
        self._handle: BinaryIO = open(path, "rb")
        magic, versions = _HEADER.unpack(self._handle.read(_HEADER.size))
        if magic != _SPILL_MAGIC:
            raise ValueError(f"{path} is not a classify spill")
        raw = self._handle.read(_OFFSET.size * (versions + 1))
        self._offsets = [
            _OFFSET.unpack_from(raw, i * _OFFSET.size)[0] for i in range(versions + 1)
        ]
        self.versions = versions

    def read(self, slot: int) -> dict[str, int]:
        """The counter (slot 0) or counter delta (later slots)."""
        if not 0 <= slot < self.versions:
            raise IndexError(f"version slot {slot} out of range")
        self._handle.seek(self._offsets[slot])
        payload = self._handle.read(self._offsets[slot + 1] - self._offsets[slot])
        return pickle.loads(payload)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SpillReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# One PackedHistory per (process, path): reopening per task would
# re-validate CRCs and re-mmap; keeping it process-global means a pool
# worker pays the open once and the OS shares the mapped pages.
_HISTORY_CACHE: dict[str, PackedHistory] = {}

# Changed-rule prefixes per selected-version step — identical for
# every chunk of a run, so computed once per (process, run shape).
_PLAN_CACHE: dict[tuple[str, tuple[int, ...]], list[frozenset[tuple[str, ...]] | None]] = {}


def _history(path: str) -> PackedHistory:
    cached = _HISTORY_CACHE.get(path)
    if cached is None:
        cached = PackedHistory.load(path)
        _HISTORY_CACHE[path] = cached
    return cached


def _rule_prefix(name: str) -> tuple[str, ...]:
    """The reversed-label prefix under which a rule can affect hosts.

    A rule change can only move the prevailing match of hosts whose
    reversed labels pass through the rule's trie path.  PSL wildcards
    are leftmost-only, so stripping trailing ``*`` labels (in reversed
    order) yields a conservative literal prefix: ``*.ck`` affects at
    most the hosts under ``("ck",)``.
    """
    labels = name.split(".")
    labels.reverse()
    while labels and labels[-1] == "*":
        labels.pop()
    return tuple(labels)


def _version_plan(
    path: str, history: PackedHistory, version_indexes: tuple[int, ...]
) -> list[frozenset[tuple[str, ...]] | None]:
    """Per-slot changed prefixes: ``None`` for slot 0 (full walk),
    else the union of prefixes of rules added/removed/rekinded since
    the previous selected version."""
    key = (path, version_indexes)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    plan: list[frozenset[tuple[str, ...]] | None] = []
    previous: frozenset | None = None
    for version_index in version_indexes:
        rules = frozenset(history.trie(version_index).iter_rules())
        if previous is None:
            plan.append(None)
        else:
            plan.append(
                frozenset(_rule_prefix(rule.name) for rule in rules ^ previous)
            )
        previous = rules
    _PLAN_CACHE[key] = plan
    return plan


#: One version step as the worker sees it: the slot's trie (None when
#: nothing changed, so there is nothing to walk) and the changed rule
#: prefixes (None for slot 0, the full walk).
_Step = tuple[PackedTrie | SuffixTrie | None, frozenset[tuple[str, ...]] | None]


@dataclass(frozen=True, slots=True)
class PackedVersions:
    """Versions read from a ``PSLPAK1`` blob every worker ``mmap``s.

    The plan comes from diffing consecutive selected versions' rules;
    each slot's trie is a zero-copy view (``history.trie(i)``).
    """

    path: str
    version_indexes: tuple[int, ...]
    baseline_index: int

    def baseline_trie(self) -> PackedTrie:
        return _history(self.path).trie(self.baseline_index)

    def steps(self) -> Iterator[_Step]:
        history = _history(self.path)
        plan = _version_plan(self.path, history, self.version_indexes)
        for version_index, prefixes in zip(self.version_indexes, plan):
            trie = history.trie(version_index) if prefixes is None or prefixes else None
            yield trie, prefixes


@dataclass(frozen=True, slots=True)
class StoreVersions:
    """Versions replayed from a :class:`VersionStore` on one dict trie.

    The task carries the first selected version's rules and one
    :class:`RuleDelta` per later slot (composed across unselected
    versions); the worker applies them forward in place on a single
    :class:`SuffixTrie`.  Packing a whole history into a blob just to
    sweep it would cost far more than replaying its deltas.
    """

    initial_rules: frozenset[Rule]
    deltas: tuple[RuleDelta, ...]
    baseline_rules: frozenset[Rule]
    version_indexes: tuple[int, ...]
    baseline_index: int

    @classmethod
    def from_store(
        cls, store: VersionStore, version_indexes: tuple[int, ...], baseline_index: int
    ) -> "StoreVersions":
        return cls(
            initial_rules=store.rules_at(version_indexes[0]),
            deltas=tuple(
                store.delta_between(older, newer)
                for older, newer in zip(version_indexes, version_indexes[1:])
            ),
            baseline_rules=store.rules_at(baseline_index),
            version_indexes=version_indexes,
            baseline_index=baseline_index,
        )

    def baseline_trie(self) -> SuffixTrie:
        return SuffixTrie(self.baseline_rules)

    def steps(self) -> Iterator[_Step]:
        trie = SuffixTrie(self.initial_rules)
        yield trie, None
        for delta in self.deltas:
            trie.apply_delta(delta)
            prefixes = frozenset(
                _rule_prefix(rule.name) for rule in delta.added | delta.removed
            )
            yield (trie if prefixes else None), prefixes


class _ChunkColumns:
    """Per-chunk lookup structures for the incremental version walk."""

    def __init__(self, chunk: ColumnarChunk) -> None:
        self.rlabels = [tuple(host.split(".")[::-1]) for host in chunk.hosts]
        self.by_first: dict[str, list[int]] = {}
        self.by_two: dict[tuple[str, str], list[int]] = {}
        for i, labels in enumerate(self.rlabels):
            self.by_first.setdefault(labels[0], []).append(i)
            if len(labels) > 1:
                self.by_two.setdefault((labels[0], labels[1]), []).append(i)
        # Host index -> positions in the pair columns touching it.
        self.pair_index: dict[int, list[int]] = {}
        for position, host in enumerate(chunk.pages):
            self.pair_index.setdefault(host, []).append(position)
        for position, host in enumerate(chunk.requests):
            self.pair_index.setdefault(host, []).append(position)

    def candidates(self, prefixes: frozenset[tuple[str, ...]]):
        """Host indexes possibly affected by rules under ``prefixes``
        (a superset: callers re-walk and drop no-ops)."""
        out: set[int] = set()
        for prefix in prefixes:
            if not prefix:
                return range(len(self.rlabels))
            if len(prefix) == 1:
                out.update(self.by_first.get(prefix[0], ()))
            else:
                bucket = self.by_two.get((prefix[0], prefix[1]), ())
                if len(prefix) == 2:
                    out.update(bucket)
                else:
                    depth = len(prefix)
                    rlabels = self.rlabels
                    out.update(i for i in bucket if rlabels[i][:depth] == prefix)
        return out


def classify_chunk(task: ClassifyTask) -> ChunkPartial:
    """Classify one chunk under every selected version.

    Only the baseline and the first selected version pay a full
    ``hosts`` trie walk; every later version is **incremental**: the
    version source names the rule prefixes that changed since the
    previous selected version, only hosts under those prefixes are
    re-walked, and the third-party / misclassification / spill numbers
    are updated from the actual site flips alone.  A typical version
    step changes a few dozen rules, so per-version cost is O(changed),
    not O(hosts) — which is what keeps a 1,142-version sweep cheap.
    """
    chunk = task.ref.load()
    versions = task.versions
    columns = _ChunkColumns(chunk)
    rlabels = columns.rlabels
    occurrences = chunk.occurrences
    pages = chunk.pages
    requests = chunk.requests

    baseline_trie = versions.baseline_trie()
    base_sites = [site_for_reversed(baseline_trie, labels) for labels in rlabels]
    os.makedirs(task.spill_dir, exist_ok=True)
    writer = SpillWriter(
        os.path.join(task.spill_dir, f"{task.task_id}.spill"), len(versions.version_indexes)
    )
    third_party: list[int] = []
    misclassified: list[int] = []
    sites: list[str] = []
    current_tp = 0
    current_mis = 0
    try:
        for version_index, (trie, prefixes) in zip(versions.version_indexes, versions.steps()):
            if prefixes is None:
                # Full walk (first selected version), full counters.
                if version_index == versions.baseline_index:
                    sites = base_sites.copy()
                    current_mis = 0
                else:
                    sites = [site_for_reversed(trie, labels) for labels in rlabels]
                    current_mis = sum(
                        compress(occurrences, map(operator.ne, sites, base_sites))
                    )
                # Zero-occurrence hosts (a snapshot chunk's foreign
                # request hosts) are walked for third-party counting
                # only; they never enter a site counter.
                full: dict[str, int] = {}
                get = full.get
                for site, occurrence in zip(sites, occurrences):
                    if occurrence:
                        full[site] = get(site, 0) + occurrence
                writer.add(full)
                site_of = sites.__getitem__
                current_tp = sum(
                    map(operator.ne, map(site_of, pages), map(site_of, requests))
                )
            else:
                changes: dict[int, str] = {}
                if trie is not None:
                    for i in columns.candidates(prefixes):
                        new_site = site_for_reversed(trie, rlabels[i])
                        if new_site != sites[i]:
                            changes[i] = new_site
                delta: dict[str, int] = {}
                if changes:
                    touched: set[int] = set()
                    for i in changes:
                        touched.update(columns.pair_index.get(i, ()))
                    for position in touched:
                        page, request = pages[position], requests[position]
                        old_ne = sites[page] != sites[request]
                        new_ne = changes.get(page, sites[page]) != changes.get(
                            request, sites[request]
                        )
                        current_tp += new_ne - old_ne
                    get = delta.get
                    for i, new_site in changes.items():
                        occurrence = occurrences[i]
                        old_site = sites[i]
                        base_site = base_sites[i]
                        delta[old_site] = get(old_site, 0) - occurrence
                        delta[new_site] = get(new_site, 0) + occurrence
                        current_mis += (
                            (new_site != base_site) - (old_site != base_site)
                        ) * occurrence
                        sites[i] = new_site
                writer.add({site: d for site, d in delta.items() if d})
            third_party.append(current_tp)
            misclassified.append(current_mis)
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
        third_party=tuple(third_party),
        misclassified=tuple(misclassified),
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
