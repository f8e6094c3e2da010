"""Immutable PSL snapshots and the hot-swap registry.

The serving layer's core object is the :class:`PslSnapshot`: one
materialized list version — compiled suffix trie plus the
:class:`~repro.history.version.PslVersion` metadata that dates it.
Snapshots are frozen; nothing about one ever changes after
construction, which is what makes the concurrency story trivial for
readers: a request thread grabs a snapshot reference once and keeps
answering from it even while an operator swaps the registry to a
different version mid-request.

The :class:`SnapshotRegistry` provides:

* **atomic hot-swap** — :meth:`~SnapshotRegistry.activate` builds the
  replacement completely *before* publishing it with a single
  reference assignment (copy-on-write), so no reader can ever observe
  a half-built trie;
* **multi-version residency** — a bounded LRU of additional resident
  snapshots for "what would version X say" probes
  (:meth:`~SnapshotRegistry.resident`), the serving-side analogue of
  the paper's Figure 7 divergence measurement;
* **live ingest** — :meth:`~SnapshotRegistry.ingest` appends a
  validated :class:`~repro.psl.diff.RuleDelta`, builds the new list
  from the tip's rules plus the delta, and hot-swaps to it.  A packed
  registry serves off its buffer only the versions its store held when
  it was built; every ingested version is a dict trie.

Stale-copy misclassification is the paper's central harm; a registry
that can hold any historical version side by side with the live one is
what lets a service *measure* that harm per-hostname instead of
shipping one frozen file.
"""

from __future__ import annotations

import datetime
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.history.store import VersionStore
from repro.history.version import PslVersion
from repro.psl.diff import RuleDelta
from repro.psl.list import PublicSuffixList, SuffixMatch
from repro.psl.packed import PackedHistory, dict_trie_bytes, estimated_dict_trie_bytes


@dataclass(frozen=True, slots=True)
class PslSnapshot:
    """One materialized, immutable PSL version ready to answer queries."""

    version: PslVersion = field(repr=False)
    psl: PublicSuffixList = field(repr=False)
    #: Wall-clock time the snapshot was materialized (for uptime-style
    #: introspection; *staleness* is measured from the version date).
    built_at: float
    #: Whether this snapshot answers off a packed (flat, immutable)
    #: trie rather than the dict trie.
    packed: bool = False
    #: Whether the packed buffer is an OS-shared memory map (pages
    #: shared with every other process mapping the same artifact).
    mmap_shared: bool = False
    #: Heap/buffer bytes this snapshot keeps resident.  For packed
    #: snapshots this is the version's slice of the shared buffer; for
    #: dict snapshots it is the measured deep size of the trie.
    resident_bytes: int = 0
    #: What a dict trie of this version costs (measured when one
    #: exists, estimated from node/rule counts when packed).
    dict_bytes_estimate: int = 0

    @property
    def index(self) -> int:
        """Position of this version in the history."""
        return self.version.index

    @property
    def date(self) -> datetime.date:
        """The version's commit date — what 'list age' is measured from."""
        return self.version.date

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the rule set (what fleet swaps verify)."""
        return self.psl.fingerprint

    @property
    def rule_count(self) -> int:
        """Number of explicit rules in this version."""
        return self.version.rule_count

    def age_days(self, reference: datetime.date | None = None) -> int:
        """List age in days — the paper's staleness measure (Figure 3)."""
        today = reference if reference is not None else datetime.date.today()
        return self.version.age_at(today)

    def match(self, hostname: str) -> SuffixMatch:
        """Full PSL lookup under this snapshot."""
        return self.psl.match(hostname)

    def describe(self) -> dict:
        """JSON-shaped metadata (the ``/versions`` wire format)."""
        return {
            "index": self.index,
            "date": self.date.isoformat(),
            "commit": self.version.commit[:12],
            "rule_count": self.rule_count,
            "fingerprint": self.fingerprint[:12],
            "packed": self.packed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PslSnapshot(v{self.index} {self.date} {self.rule_count} rules)"


@dataclass(frozen=True, slots=True)
class MemoryAccounting:
    """Resident-memory breakdown across one registry's snapshots.

    ``packed_bytes`` counts the per-version slices of resident packed
    snapshots plus (once) the packed buffer's shared sections;
    ``dict_bytes`` counts measured dict-trie bytes of resident dict
    snapshots; ``dict_bytes_estimate`` is what *all* resident versions
    would cost as dict tries — the observable form of the bench's
    resident-set-reduction claim.
    """

    packed_bytes: int
    dict_bytes: int
    dict_bytes_estimate: int
    shared_bytes: int
    versions: tuple[dict, ...]


class UnknownVersionError(LookupError):
    """Raised when a version spec resolves to nothing in the history."""

    def __init__(self, spec: object, reason: str) -> None:
        self.spec = spec
        self.reason = reason
        super().__init__(f"unknown version {spec!r}: {reason}")


class SnapshotRegistry:
    """Versioned snapshots with atomic hot-swap and bounded residency.

    Thread-safety contract:

    * ``active`` is a bare attribute read — readers take no lock, ever.
      Publication is a single reference assignment performed only after
      the replacement snapshot is fully built, so readers see either
      the old complete snapshot or the new complete snapshot, never an
      intermediate state.
    * All mutation (``activate``, ``resident`` cache fills) serializes
      on one internal lock, which also guards the underlying
      :class:`VersionStore` — its checkout cache is not thread-safe.

    ``resident_capacity`` bounds how many *additional* versions stay
    materialized for compare probes; the active snapshot is never
    evicted.  Old active snapshots stay valid for in-flight requests
    that already hold a reference and are reclaimed by the garbage
    collector once the last request finishes.
    """

    def __init__(
        self,
        store: VersionStore,
        *,
        active: int = -1,
        resident_capacity: int = 4,
        clock: Callable[[], float] = time.time,
        packed: PackedHistory | None = None,
    ) -> None:
        if resident_capacity < 1:
            raise ValueError("resident_capacity must be positive")
        if len(store) == 0:
            raise ValueError("cannot serve an empty version store")
        if packed is not None and len(packed) < len(store):
            raise ValueError(
                f"packed history has {len(packed)} versions, store has {len(store)}"
            )
        self._store = store
        self._packed = packed
        #: Versions served off ``packed``: those the store held at
        #: construction.  A longer buffer (the full history behind a
        #: prefix store) never answers for a version ingested later.
        self._packed_count = len(store)
        self._clock = clock
        self._lock = threading.Lock()
        self._resident: OrderedDict[int, PslSnapshot] = OrderedDict()
        self._resident_capacity = resident_capacity
        self._generation = 0
        with self._lock:
            self._active = self._materialize_locked(self.resolve(active))

    # -- reading (lock-free for the hot path) --------------------------------

    @property
    def active(self) -> PslSnapshot:
        """The live snapshot.  Lock-free; pin it once per request."""
        return self._active

    @property
    def generation(self) -> int:
        """Number of completed hot-swaps since construction."""
        return self._generation

    @property
    def store(self) -> VersionStore:
        """The backing history."""
        return self._store

    @property
    def packed_history(self) -> PackedHistory | None:
        """The shared packed buffer, when serving off the packed path."""
        return self._packed

    def __len__(self) -> int:
        return len(self._store)

    def resident_indexes(self) -> tuple[int, ...]:
        """Indexes currently materialized (active first)."""
        with self._lock:
            others = tuple(i for i in self._resident if i != self._active.index)
        return (self._active.index,) + others

    # -- version resolution --------------------------------------------------

    def resolve(self, spec: object) -> int:
        """Resolve a version spec to a canonical non-negative index.

        Accepts an integer index (negative counts from the end), the
        string ``"latest"``, a decimal string, or an ISO date string —
        dates resolve to the newest version on or before that day,
        exactly how a list vendored on that day maps to a version.
        """
        count = len(self._store)
        if isinstance(spec, bool):  # bool is an int subclass; reject it
            raise UnknownVersionError(spec, "not an index")
        if isinstance(spec, int):
            index = spec + count if spec < 0 else spec
            if not 0 <= index < count:
                raise UnknownVersionError(spec, f"index out of range [0, {count})")
            return index
        if isinstance(spec, datetime.date):
            version = self._store.version_at_date(spec)
            if version is None:
                raise UnknownVersionError(spec, "predates the history")
            return version.index
        if isinstance(spec, str):
            text = spec.strip().lower()
            if text == "latest":
                return count - 1
            if text.lstrip("-").isdigit():
                return self.resolve(int(text))
            try:
                day = datetime.date.fromisoformat(text)
            except ValueError:
                raise UnknownVersionError(spec, "not an index, date, or 'latest'") from None
            return self.resolve(day)
        raise UnknownVersionError(spec, "unsupported spec type")

    # -- materialization -----------------------------------------------------

    def _materialize_locked(self, index: int) -> PslSnapshot:
        """Build (or fetch resident) snapshot; caller holds the lock."""
        cached = self._resident.get(index)
        if cached is not None:
            self._resident.move_to_end(index)
            return cached
        if self._packed is not None and index < self._packed_count:
            # The packed path: a trie *view* into the shared buffer —
            # no trie build, no rule materialization, near-zero-copy.
            # Versions ingested live fall through to the dict path
            # below, even where the buffer holds a version at that
            # index: the store's delta, not the buffer, defines them.
            trie = self._packed.trie(index)
            snapshot = PslSnapshot(
                version=self._store.version(index),
                psl=PublicSuffixList.from_packed(trie),
                built_at=self._clock(),
                packed=True,
                mmap_shared=self._packed.mmap_shared,
                resident_bytes=self._packed.version_bytes(index),
                dict_bytes_estimate=estimated_dict_trie_bytes(
                    trie.node_count, len(trie)
                ),
            )
        else:
            snapshot = self._dict_snapshot(
                self._store.version(index), self._store.checkout(index)
            )
        self._resident[index] = snapshot
        self._evict_locked()
        return snapshot

    def _dict_snapshot(self, version: PslVersion, psl: PublicSuffixList) -> PslSnapshot:
        measured = dict_trie_bytes(psl._trie)
        return PslSnapshot(
            version=version,
            psl=psl,
            built_at=self._clock(),
            resident_bytes=measured,
            dict_bytes_estimate=measured,
        )

    def _evict_locked(self) -> None:
        active_index = self._active.index if hasattr(self, "_active") else None
        while len(self._resident) > self._resident_capacity:
            for index in self._resident:
                if index != active_index:
                    del self._resident[index]
                    break
            else:  # only the active snapshot remains; nothing evictable
                break

    def resident(self, spec: object) -> PslSnapshot:
        """A materialized snapshot of ``spec``, kept resident (LRU).

        This is the side-by-side path: compare probes hold two resident
        snapshots at once without disturbing the active one.
        """
        index = self.resolve(spec)
        active = self._active
        if active.index == index:
            return active
        with self._lock:
            return self._materialize_locked(index)

    def activate(self, spec: object) -> PslSnapshot:
        """Hot-swap the active snapshot to ``spec``, atomically.

        The replacement is fully built under the lock *before* the
        single-assignment publish; concurrent readers keep answering
        from the outgoing snapshot until the reference flips.
        """
        index = self.resolve(spec)
        with self._lock:
            snapshot = self._materialize_locked(index)
            previous = self._active
            self._active = snapshot
            if snapshot is not previous:
                self._generation += 1
            self._evict_locked()
            return snapshot

    # -- live ingest (the update loop's entry point) -------------------------

    def ingest(
        self,
        date: datetime.date,
        delta: RuleDelta,
        *,
        message: str = "",
        expected_fingerprint: str | None = None,
        activate: bool = True,
    ) -> PslSnapshot:
        """Append a new version to the history and hot-swap to it.

        This is the watcher's push path, with a **last-good fallback**
        contract: every input that can fail is validated *before* any
        state mutates, so a rejected ingest — wrong fingerprint, a
        delta that does not apply cleanly — raises :class:`ValueError`
        and leaves the active snapshot, the resident set, and the
        backing store exactly as they were.  Concurrent readers never
        observe a failed ingest at all.

        The new list is built from the tip's rules plus ``delta`` (the
        same dict-trie form every version past the packed buffer
        takes).  ``expected_fingerprint`` pins it to the rule set the
        caller validated: a delta that lands on a diverged history is
        refused even when it applies cleanly.

        ``activate=False`` appends and materializes the version as a
        resident without publishing it — the registry's active
        snapshot (e.g. an operator-pinned version) keeps serving.
        """
        with self._lock:
            tip = self._store.rules_at(len(self._store) - 1)
            psl = PublicSuffixList((tip - delta.removed) | delta.added)
            if expected_fingerprint is not None and psl.fingerprint != expected_fingerprint:
                raise ValueError(
                    "ingest fingerprint mismatch: expected "
                    f"{expected_fingerprint[:12]}, delta yields {psl.fingerprint[:12]}"
                )
            # ``commit`` validates monotone dates and clean application
            # before mutating anything, so a bad delta raises with the
            # store untouched.
            version = self._store.commit(date, delta, message=message)
            snapshot = self._dict_snapshot(version, psl)
            self._resident[version.index] = snapshot
            if activate:
                previous = self._active
                self._active = snapshot
                if snapshot is not previous:
                    self._generation += 1
            self._evict_locked()
            return snapshot

    def memory_accounting(self) -> MemoryAccounting:
        """The resident-memory breakdown (the ``/metrics`` source).

        Per-version rows cover every resident snapshot; the totals are
        what the memory gauges export — resident packed bytes (shared
        sections counted once) against the dict-trie bytes the same
        residency would cost.
        """
        with self._lock:
            snapshots = list(self._resident.values())
        packed_bytes = dict_bytes = estimate = 0
        rows = []
        for snapshot in snapshots:
            if snapshot.packed:
                packed_bytes += snapshot.resident_bytes
            else:
                dict_bytes += snapshot.resident_bytes
            estimate += snapshot.dict_bytes_estimate
            rows.append(
                {
                    "index": snapshot.index,
                    "packed": snapshot.packed,
                    "packed_mmap_shared": snapshot.mmap_shared,
                    "resident_bytes": snapshot.resident_bytes,
                    "dict_bytes_estimate": snapshot.dict_bytes_estimate,
                }
            )
        shared = 0
        if self._packed is not None and packed_bytes:
            shared = self._packed.shared_bytes
            packed_bytes += shared
        return MemoryAccounting(
            packed_bytes=packed_bytes,
            dict_bytes=dict_bytes,
            dict_bytes_estimate=estimate,
            shared_bytes=shared,
            versions=tuple(rows),
        )

    def describe(self, *, limit: int | None = None) -> dict:
        """Registry state in the ``/versions`` wire shape."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        versions = self._store.versions
        if limit is not None:
            versions = versions[-limit:] if limit else ()
        return {
            "count": len(self._store),
            "active": self.active.describe(),
            "generation": self.generation,
            "resident": list(self.resident_indexes()),
            "versions": [
                {
                    "index": version.index,
                    "date": version.date.isoformat(),
                    "commit": version.commit[:12],
                    "rule_count": version.rule_count,
                }
                for version in versions
            ],
        }
