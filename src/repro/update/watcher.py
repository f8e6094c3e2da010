"""The fault-tolerant watcher: poll, validate, hot-swap, journal.

One :class:`Watcher` keeps a live :class:`~repro.serve.snapshots
.SnapshotRegistry` synchronized with a (synthetic) upstream.  Each
:meth:`~Watcher.poll_once`:

1. fetches the upstream head with bounded retries and the
   deterministic exponential backoff of
   :class:`repro.runtime.executor.RetryPolicy` (no jitter — replays
   are bit-identical);
2. for every published version the registry has not processed, fetches
   it (as a patch, or as a **full snapshot** when resynchronizing past
   a quarantined version), then validates end to end *before anything
   is published*: body checksum, patch/snapshot parse, clean apply
   against the local tip, order-independent rule-set digest match,
   and declared rule count;
3. pushes the validated :class:`~repro.psl.diff.RuleDelta` into the
   registry through
   :meth:`~repro.serve.snapshots.SnapshotRegistry.ingest`, which builds
   the new list from the tip plus the delta and commits it with an
   atomic hot-swap and last-good fallback, so a version that fails
   *any* check leaves the active snapshot serving untouched;
4. appends one :class:`IngestRecord` per decision to the
   :class:`IngestJournal`.

**Quarantine, not head-of-line blocking:** a version that still fails
after ``retry.max_attempts`` is recorded as ``quarantined`` and
skipped; the next version is ingested through the full-snapshot resync
path, so one poisoned patch can never pin the service to a stale list
(the failure mode the paper measures in vendored copies).

Determinism: the watcher takes injectable ``sleep`` and ``today``
callables and keeps no wall-clock state in the journal, so running the
same upstream + fault plan + config twice yields byte-identical
journals and lineages — one stored plan reproduces the exact version
history of a run.
"""

from __future__ import annotations

import datetime
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from repro.history.version import rule_digest
from repro.psl.diff import RuleDelta
from repro.runtime.executor import RetryPolicy
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry
from repro.update.slo import HealthState, SloPolicy, UpdateStatus, evaluate
from repro.update.upstream import (
    HeadInfo,
    SyntheticUpstream,
    UpstreamError,
    VersionEnvelope,
    body_checksum,
    parse_full_body,
)

__all__ = [
    "IngestJournal",
    "IngestRecord",
    "UpdateValidationError",
    "Watcher",
    "WatcherConfig",
]

_T = TypeVar("_T")


class UpdateValidationError(RuntimeError):
    """A fetched version failed validation (checksum/parse/apply/digest)."""


@dataclass(frozen=True, slots=True)
class WatcherConfig:
    """Tunables of one watcher loop."""

    poll_interval: float = 30.0
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_attempts=3))
    slo: SloPolicy = field(default_factory=SloPolicy)
    #: Hot-swap the registry to each accepted version (the live-serve
    #: mode).  ``False`` ingests without publishing — e.g. an operator
    #: holding the fleet on a pinned version while staying current.
    activate: bool = True

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


@dataclass(frozen=True, slots=True)
class IngestRecord:
    """One journal line: what happened to one upstream version (or poll).

    ``action`` is one of ``accepted`` (patch path), ``resynced`` (full
    snapshot past a quarantine), ``quarantined`` (validation failed on
    every attempt), or ``poll_failed`` (the head poll itself failed).
    Contains no wall-clock fields — journals from replayed runs compare
    equal.
    """

    poll: int
    upstream_index: int
    action: str
    source: str  # "patch" | "full" | "head"
    attempts: int
    reason: str = ""
    date: str = ""
    commit: str = ""
    fingerprint: str = ""

    def to_json(self) -> dict:
        return {
            "poll": self.poll,
            "upstream_index": self.upstream_index,
            "action": self.action,
            "source": self.source,
            "attempts": self.attempts,
            "reason": self.reason,
            "date": self.date,
            "commit": self.commit,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "IngestRecord":
        return cls(
            poll=int(payload["poll"]),
            upstream_index=int(payload["upstream_index"]),
            action=str(payload["action"]),
            source=str(payload["source"]),
            attempts=int(payload["attempts"]),
            reason=str(payload.get("reason", "")),
            date=str(payload.get("date", "")),
            commit=str(payload.get("commit", "")),
            fingerprint=str(payload.get("fingerprint", "")),
        )


class IngestJournal:
    """The append-only decision log of one watcher.

    The journal *is* the replay contract: identical inputs produce
    identical journals, and the SLO gauges are required to agree with
    what the journal implies (the bench asserts this exactly).
    """

    def __init__(self, records: Sequence[IngestRecord] = ()) -> None:
        self._records: list[IngestRecord] = list(records)
        self._lock = threading.Lock()

    def append(self, record: IngestRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> tuple[IngestRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[IngestRecord]:
        return iter(self.records)

    def lineage(self) -> tuple[tuple[int, str, str], ...]:
        """The accepted version history: ``(index, action, fingerprint)``."""
        return tuple(
            (record.upstream_index, record.action, record.fingerprint)
            for record in self.records
            if record.action in ("accepted", "resynced")
        )

    def counts(self) -> dict[str, int]:
        """How many records carry each action."""
        totals: dict[str, int] = {}
        for record in self.records:
            totals[record.action] = totals.get(record.action, 0) + 1
        return totals

    def to_json(self) -> list[dict]:
        return [record.to_json() for record in self.records]

    @classmethod
    def from_json(cls, payload: Sequence[Mapping]) -> "IngestJournal":
        return cls([IngestRecord.from_json(item) for item in payload])


class Watcher:
    """Keeps a registry current against an upstream, surviving its faults.

    The registry's local history must be an index-aligned prefix of the
    upstream's (how every consumer of a versioned list starts: vendored
    up to some version, drifting after).  All mutable state is guarded
    by one lock so :meth:`status` snapshots are coherent under the
    serving tier's metric scrapes.
    """

    def __init__(
        self,
        registry: SnapshotRegistry,
        upstream: SyntheticUpstream,
        *,
        config: WatcherConfig | None = None,
        journal: IngestJournal | None = None,
        sleep: Callable[[float], None] = time.sleep,
        today: Callable[[], datetime.date] = datetime.date.today,
    ) -> None:
        self._registry = registry
        self._upstream = upstream
        self._config = config if config is not None else WatcherConfig()
        self.journal = journal if journal is not None else IngestJournal()
        self._sleep = sleep
        self._today = today
        self._lock = threading.RLock()
        #: Next upstream index to process (local store is a prefix).
        self._cursor = len(registry.store)
        self._head: "HeadInfo | None" = None
        self._polls = 0
        self._failed_polls = 0
        self._accepted = 0
        self._resynced = 0
        self._quarantined: dict[int, str] = {}
        self._resync_needed = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- introspection -------------------------------------------------------

    @property
    def config(self) -> WatcherConfig:
        return self._config

    @property
    def registry(self) -> SnapshotRegistry:
        return self._registry

    @property
    def quarantined(self) -> dict[int, str]:
        """Upstream indexes permanently skipped, with the last reason."""
        with self._lock:
            return dict(self._quarantined)

    def status(self, reference: datetime.date | None = None) -> UpdateStatus:
        """One coherent SLO reading (the ``/healthz`` ``update`` block)."""
        with self._lock:
            active = self._registry.active
            age = active.age_days(reference if reference is not None else self._today())
            head_index = self._head.index if self._head is not None else None
            behind = max(0, head_index - (self._cursor - 1)) if head_index is not None else 0
            state = evaluate(
                self._config.slo,
                age_days=age,
                versions_behind=behind,
                consecutive_failed_polls=self._failed_polls,
            )
            return UpdateStatus(
                state=state,
                active_index=active.index,
                active_date=active.date.isoformat(),
                active_age_days=age,
                upstream_head_index=head_index,
                versions_behind=behind,
                consecutive_failed_polls=self._failed_polls,
                polls=self._polls,
                accepted=self._accepted,
                resynced=self._resynced,
                quarantined=len(self._quarantined),
            )

    # -- one poll ------------------------------------------------------------

    def poll_once(self) -> tuple[IngestRecord, ...]:
        """Poll the upstream head and ingest everything new; journal it."""
        with self._lock:
            self._polls += 1
            poll = self._polls
            head, attempts, reason = self._with_retries(self._upstream.head)
            if head is None:
                self._failed_polls += 1
                record = IngestRecord(
                    poll=poll,
                    upstream_index=-1,
                    action="poll_failed",
                    source="head",
                    attempts=attempts,
                    reason=reason,
                )
                self.journal.append(record)
                return (record,)
            self._failed_polls = 0
            self._head = head
            records: list[IngestRecord] = []
            while self._cursor <= head.index:
                record = self._ingest_version(poll, self._cursor)
                records.append(record)
                self.journal.append(record)
                self._cursor += 1
                if record.action == "quarantined":
                    self._quarantined[record.upstream_index] = record.reason
                    self._resync_needed = True
                else:
                    self._resync_needed = False
                    if record.action == "accepted":
                        self._accepted += 1
                    else:
                        self._resynced += 1
            return tuple(records)

    def _with_retries(self, call: Callable[[], _T]) -> tuple[_T | None, int, str]:
        """Run ``call`` under the retry policy's attempts and backoff.

        Returns ``(result, attempts, reason)``: ``result`` is ``None``
        when every attempt failed, and ``reason`` is then the last
        failure's message.
        """
        policy = self._config.retry
        reason = "unknown"
        for attempt in range(1, policy.max_attempts + 1):
            delay = policy.backoff(attempt)
            if delay:
                self._sleep(delay)
            try:
                return call(), attempt, ""
            except (UpstreamError, UpdateValidationError) as exc:
                reason = str(exc) or repr(exc)
        return None, policy.max_attempts, reason

    def _ingest_version(self, poll: int, index: int) -> IngestRecord:
        source = "full" if self._resync_needed else "patch"
        fetch = self._upstream.full if source == "full" else self._upstream.patch

        def fetch_and_ingest() -> tuple[VersionEnvelope, PslSnapshot]:
            envelope = fetch(index)
            return envelope, self._validate_and_ingest(envelope, source)

        result, attempts, reason = self._with_retries(fetch_and_ingest)
        if result is None:
            return IngestRecord(
                poll=poll,
                upstream_index=index,
                action="quarantined",
                source=source,
                attempts=attempts,
                reason=reason,
            )
        envelope, snapshot = result
        return IngestRecord(
            poll=poll,
            upstream_index=index,
            action="resynced" if source == "full" else "accepted",
            source=source,
            attempts=attempts,
            date=envelope.date.isoformat(),
            commit=envelope.commit,
            fingerprint=snapshot.fingerprint,
        )

    # -- validation (everything happens before anything publishes) ----------

    def _validate_and_ingest(self, envelope: VersionEnvelope, source: str) -> PslSnapshot:
        if body_checksum(envelope.body) != envelope.checksum:
            raise UpdateValidationError(
                f"checksum mismatch on {source} v{envelope.index} (truncated or tampered body)"
            )
        store = self._registry.store
        current = store.rules_at(len(store) - 1)
        if source == "patch":
            try:
                delta = RuleDelta.from_patch(envelope.body)
            except ValueError as exc:
                raise UpdateValidationError(f"malformed patch v{envelope.index}: {exc}") from exc
            missing = delta.removed - current
            if missing:
                raise UpdateValidationError(
                    f"patch v{envelope.index} does not apply cleanly: removes "
                    f"{len(missing)} absent rule(s)"
                )
            duplicate = delta.added & current
            if duplicate:
                raise UpdateValidationError(
                    f"patch v{envelope.index} does not apply cleanly: re-adds "
                    f"{len(duplicate)} present rule(s)"
                )
        else:
            try:
                target = parse_full_body(envelope.body)
            except ValueError as exc:
                raise UpdateValidationError(
                    f"malformed full snapshot v{envelope.index}: {exc}"
                ) from exc
            delta = RuleDelta(
                added=frozenset(target - current), removed=frozenset(current - target)
            )
            if not delta:
                # The resync target equals what we already serve (the
                # quarantined version must have been a net no-op).
                return self._registry.active

        predicted = store.latest.set_digest
        for rule in delta.added | delta.removed:
            predicted ^= rule_digest(rule.text)
        if predicted != envelope.set_digest:
            raise UpdateValidationError(
                f"rule-set digest mismatch after applying v{envelope.index}: the "
                "declared fingerprint does not match the applied result"
            )
        applied_count = len(current) - len(delta.removed) + len(delta.added)
        if applied_count != envelope.rule_count:
            raise UpdateValidationError(
                f"rule count mismatch on v{envelope.index}: "
                f"declared {envelope.rule_count}, applied {applied_count}"
            )

        try:
            return self._registry.ingest(
                envelope.date,
                delta,
                message=f"update: {source} upstream v{envelope.index} {envelope.commit[:12]}",
                activate=self._config.activate,
            )
        except ValueError as exc:
            raise UpdateValidationError(f"registry rejected v{envelope.index}: {exc}") from exc

    # -- the loop / serving-tier thread --------------------------------------

    def run(self, *, polls: int | None = None, stop: threading.Event | None = None) -> None:
        """Poll forever (or ``polls`` times), sleeping ``poll_interval``.

        Any unexpected exception is absorbed into a ``poll_failed``
        journal record — the loop itself must never die to one bad
        poll, only to :meth:`stop`.
        """
        stop = stop if stop is not None else self._stop
        completed = 0
        while polls is None or completed < polls:
            try:
                self.poll_once()
            except Exception as exc:  # the loop-never-dies contract
                with self._lock:
                    self._failed_polls += 1
                    self.journal.append(
                        IngestRecord(
                            poll=self._polls,
                            upstream_index=-1,
                            action="poll_failed",
                            source="head",
                            attempts=0,
                            reason=f"unexpected: {exc!r}",
                        )
                    )
            completed += 1
            if polls is not None and completed >= polls:
                return
            if stop.wait(self._config.poll_interval):
                return

    def start(self) -> None:
        """Run the loop on a daemon thread (the serving-tier mode)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                raise RuntimeError("watcher already running")
            self._stop.clear()
            self._thread = threading.Thread(
                target=self.run, name="psl-update-watcher", daemon=True
            )
            self._thread.start()

    def request_stop(self) -> None:
        """Signal the loop to exit without waiting (drain step one)."""
        self._stop.set()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the loop and join the thread; True when it exited."""
        self._stop.set()
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        return not thread.is_alive()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()
