"""The classify driver: fan-out, resilience, and the global merge.

:class:`ClassifyEngine` is the one version-axis engine: it turns a
request-log source (``psl-classify``) or a web snapshot's universes
(the Figure 5-7 sweep) into per-version count tables by composing the
platform layers:

* the version axis is one
  :class:`~repro.classify.partials.VersionAxis`: the selected versions
  (plus the baseline) cut as deltas from a
  :class:`~repro.history.store.VersionStore` (or diffed from a packed
  ``PSLPAK1`` blob path), built into one
  :class:`~repro.psl.intervals.IntervalTrie`.  The engine builds it
  once, when its first run first has a chunk to execute (never in the
  constructor, never for a run whose every chunk resumes from the
  ledger), keeps only the axis, and hands that one axis to every task
  of every run: in-process chunks share the index and the segments it
  has resolved, and pool tasks ship it as bytes pickled once;
* chunk planning cuts fixed-size chunks with stable task ids, every
  merge a commutative sum, so results are bit-identical for any chunk
  size or worker count;
* execution is :class:`repro.runtime.ResilientExecutor` — bounded
  retries, ``BrokenProcessPool`` recovery, poisoned-chunk quarantine,
  and chunk-granular checkpoint/resume keyed by a manifest fingerprint
  covering the source, the selected versions' SHA-256 rule-set
  fingerprints, and the chunking (a resumed run can only reuse results
  bit-identical to what it would compute itself);
* the merge replays each chunk's delta-encoded spill against **one**
  global site counter, version at a time, so driver memory is O(one
  version's site universe) regardless of how many versions ran.

Per-version outputs reuse the streaming dataclasses
(:class:`~repro.webgraph.stream.StreamedSiteCounts`,
:class:`~repro.webgraph.stream.StreamedThirdPartyCounts`) — the
differential tests assert bit-equality against those serial oracles.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.classify.columnar import (
    ColumnarChunk,
    SpooledChunkRef,
    SyntheticChunkRef,
    spool_chunks,
)
from repro.classify.partials import (
    ChunkPartial,
    ClassifyTask,
    SpillReader,
    VersionAxis,
    VersionDeltas,
    classify_chunk,
    partial_validator,
)
from repro.history.store import VersionStore
from repro.psl.packed import PackedHistory
from repro.runtime import (
    CheckpointStore,
    ExecutionReport,
    FaultPlan,
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
    collector_paused,
    remove_temp_files,
)
from repro.webgraph.requestlog import RequestLogConfig, block_count, record_count
from repro.webgraph.stream import StreamedSiteCounts, StreamedThirdPartyCounts


def select_version_indexes(total: int, requested: int) -> tuple[int, ...]:
    """``requested`` evenly spaced raw indexes over ``[0, total)``.

    Always includes the first and latest version; asking for more
    versions than exist yields every version once.
    """
    if total < 1:
        raise ValueError("history has no versions")
    if requested < 1:
        raise ValueError("requested version count must be positive")
    requested = min(requested, total)
    if requested == 1:
        return (total - 1,)
    step = (total - 1) / (requested - 1)
    return tuple(sorted({round(i * step) for i in range(requested)}))


@dataclass(frozen=True, slots=True)
class VersionRow:
    """One PSL version's row of the output tables."""

    version_index: int
    trie_fingerprint: str
    sites: StreamedSiteCounts
    third_party: StreamedThirdPartyCounts
    misclassified_hostnames: int

    @property
    def misclassified_share(self) -> float:
        """Share of hostname occurrences grouped differently than the
        latest list groups them."""
        if self.sites.hostnames == 0:
            return 0.0
        return self.misclassified_hostnames / self.sites.hostnames

    def to_json(self) -> dict[str, Any]:
        return {
            "version": self.version_index,
            "trie_fingerprint": self.trie_fingerprint,
            "hostnames": self.sites.hostnames,
            "sites": self.sites.sites,
            "largest_site": self.sites.largest_site,
            "skipped_hosts": self.sites.skipped,
            "third_party": self.third_party.third_party,
            "total_pairs": self.third_party.total,
            "skipped_pairs": self.third_party.skipped,
            "misclassified_hostnames": self.misclassified_hostnames,
            "misclassified_share": round(self.misclassified_share, 6),
        }


@dataclass(frozen=True, slots=True)
class ClassifyFailureReport:
    """What a degraded run lost: the quarantined chunks and why."""

    quarantined: tuple[TaskFailure, ...]
    chunks: int

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def summary(self) -> str:
        lost = ", ".join(failure.task_id for failure in self.quarantined)
        return (
            f"classify degraded: {len(self.quarantined)}/{self.chunks} "
            f"chunks quarantined ({lost}); counts cover surviving chunks only"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "degraded": self.degraded,
            "chunks": self.chunks,
            "quarantined": [
                {"task_id": f.task_id, "attempts": f.attempts, "error": f.error}
                for f in self.quarantined
            ],
        }


@dataclass(frozen=True, slots=True)
class ClassifyResult:
    """Per-version tables plus the run's execution story."""

    rows: tuple[VersionRow, ...]
    baseline_index: int
    chunks: int
    records: int
    elapsed: float
    report: ExecutionReport
    failure: ClassifyFailureReport | None

    @property
    def degraded(self) -> bool:
        return self.failure is not None and self.failure.degraded

    @property
    def records_per_second(self) -> float:
        return self.records / self.elapsed if self.elapsed > 0 else 0.0

    def row_for(self, version_index: int) -> VersionRow:
        for row in self.rows:
            if row.version_index == version_index:
                return row
        raise KeyError(f"version {version_index} not in this run")

    def to_json(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline_index,
            "chunks": self.chunks,
            "records": self.records,
            "elapsed": round(self.elapsed, 3),
            "records_per_second": round(self.records_per_second, 1),
            "degraded": self.degraded,
            "resumed_chunks": self.report.resumed,
            "executed_chunks": self.report.executed,
            "retried": list(self.report.retried),
            "pool_rebuilds": self.report.pool_rebuilds,
            "failure": self.failure.to_json() if self.failure else None,
            "rows": [row.to_json() for row in self.rows],
        }

    def summary(self) -> str:
        latest = self.rows[-1]
        lines = [
            f"classified {self.records:,} records across {len(self.rows)} "
            f"versions in {self.elapsed:.1f}s "
            f"({self.records_per_second:,.0f} records/s, {self.chunks} chunks, "
            f"{self.report.resumed} resumed)",
            f"  latest (v{latest.version_index}): {latest.sites.sites:,} sites, "
            f"{latest.third_party.third_party:,}/{latest.third_party.total:,} third-party, "
            f"{latest.sites.skipped:,} malformed endpoints skipped",
        ]
        oldest = self.rows[0]
        lines.append(
            f"  oldest (v{oldest.version_index}): "
            f"{oldest.misclassified_hostnames:,} hostname occurrences "
            f"({oldest.misclassified_share:.2%}) grouped differently than the latest list"
        )
        if self.failure is not None and self.failure.degraded:
            lines.append("  " + self.failure.summary())
        return "\n".join(lines)


class ClassifyEngine:
    """Runs one classify job end to end inside a run directory.

    ``history`` is a :class:`~repro.history.store.VersionStore` or a
    packed blob path (kept only for the classify-bulk benchmark harness,
    ``benchmarks/e2e/batch.py``); either way ``version_indexes`` and
    ``baseline`` are raw indexes into it, and a row's ``trie_fingerprint``
    is the version's stored SHA-256 fingerprint, so both give equal rows.

    The run directory owns the mutable state — ``checkpoints/`` (the
    resume ledger), ``spills/`` (per-chunk version tables), and
    ``spool/`` (columnarized generic streams) — so killing the process
    and re-running with ``resume=True`` continues chunk-granularly.
    """

    def __init__(
        self,
        history: VersionStore | str,
        *,
        version_indexes: Sequence[int],
        baseline: int = -1,
        workers: int = 1,
        run_dir: str,
        resume: bool = False,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        fingerprint_context: str | None = None,
    ) -> None:
        if not version_indexes:
            raise ValueError("version_indexes must not be empty")
        if isinstance(history, str):
            history = PackedHistory.load(os.path.abspath(history))
        total = len(history)
        if total == 0:
            raise ValueError("history has no versions")
        self._versions = tuple(sorted({range(total)[i] for i in version_indexes}))
        self._baseline = range(total)[baseline]
        # The axis is built when a run first has a chunk to execute, not
        # here: diffing a blob's versions is the costly part of a cold start.
        self._history = history
        self._axis: VersionAxis | None = None
        if isinstance(history, VersionStore):
            self._fingerprint = lambda index: history.version(index).fingerprint
            self._diff = VersionDeltas.from_store
        else:
            self._fingerprint = history.fingerprint
            self._diff = VersionDeltas.from_packed
        self._workers = workers
        self._run_dir = run_dir
        self._resume = resume
        self._policy = policy
        self._fault_plan = fault_plan
        self._context = fingerprint_context
        os.makedirs(run_dir, exist_ok=True)

    @property
    def version_indexes(self) -> tuple[int, ...]:
        return self._versions

    @property
    def baseline_index(self) -> int:
        return self._baseline

    # -- sources --------------------------------------------------------------

    def run_synthetic(
        self, config: RequestLogConfig, *, blocks_per_task: int = 4
    ) -> ClassifyResult:
        """Classify the deterministic synthetic stream for ``config``.

        Tasks carry generator coordinates, not records: each covers
        ``blocks_per_task`` whole generation blocks, so chunk refs
        stay tiny at any scale and chunk content is independent of the
        chunking itself.
        """
        if blocks_per_task < 1:
            raise ValueError("blocks_per_task must be positive")
        blocks = block_count(config)
        refs = [
            SyntheticChunkRef(
                config=config,
                first_block=first,
                block_count=min(blocks_per_task, blocks - first),
                index=index,
            )
            for index, first in enumerate(range(0, blocks, blocks_per_task))
        ]
        source = {
            "kind": "synthetic",
            "config": config,
            "blocks_per_task": blocks_per_task,
            "records": record_count(config),
        }
        return self._run(refs, source)

    def run_stream(
        self, records: Iterable[tuple[str, str]], *, chunk_records: int = 262_144
    ) -> ClassifyResult:
        """Classify an arbitrary record stream.

        The stream is columnarized and spooled to the run directory
        one chunk at a time (parent memory stays O(chunk)); workers
        load digest-verified spool files.  Note: resuming a stream run
        re-spools the stream — byte-identical streams reconcile to the
        same manifest and resume; anything else clears the ledger.
        """
        refs = spool_chunks(records, chunk_records, os.path.join(self._run_dir, "spool"))
        return self.run_spooled(refs)

    def run_spooled(self, refs: Sequence[SpooledChunkRef]) -> ClassifyResult:
        """Classify already-spooled chunks (the resume-friendly form)."""
        source = {
            "kind": "spooled",
            "chunks": [(ref.digest, ref.nbytes) for ref in refs],
        }
        return self._run(list(refs), source)

    def run_chunks(self, chunks: Sequence[ColumnarChunk]) -> ClassifyResult:
        """Classify in-memory chunks — a web snapshot's universes cut
        by :func:`~repro.classify.columnar.snapshot_chunks`."""
        source = {
            "kind": "chunks",
            "chunks": [
                hashlib.sha256(
                    pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
                ).hexdigest()
                for chunk in chunks
            ],
        }
        return self._run(list(chunks), source)

    # -- the run --------------------------------------------------------------

    def _manifest(self, source: dict[str, Any]) -> dict[str, Any]:
        material: dict[str, Any] = {
            "scheme": "classify-v1",
            "source": source,
            "versions": list(self._versions),
            "baseline": self._baseline,
            "tries": [self._fingerprint(i) for i in self._versions],
            "baseline_trie": self._fingerprint(self._baseline),
        }
        if self._context is not None:
            material["context"] = self._context
        return material

    def _run(
        self,
        refs: Sequence[ColumnarChunk | SyntheticChunkRef | SpooledChunkRef],
        source: dict[str, Any],
    ) -> ClassifyResult:
        started = time.perf_counter()
        checkpoint = CheckpointStore(os.path.join(self._run_dir, "checkpoints"))
        checkpoint.reconcile(self._manifest(source), resume=self._resume)
        spill_dir = os.path.join(self._run_dir, "spills")
        # The run owns its directory: reclaim what killed writes left.
        remove_temp_files(spill_dir)
        remove_temp_files(os.path.join(self._run_dir, "spool"))
        tasks = _Tasks(refs, self._version_axis, spill_dir)
        executor = ResilientExecutor(
            workers=self._workers,
            policy=self._policy,
            checkpoint=checkpoint,
            fault_plan=self._fault_plan,
        )
        results, report = executor.run(
            classify_chunk,
            tasks,
            task_ids=[ref.task_id for ref in refs],
            validate=partial_validator(len(self._versions)),
        )
        partials = [value for value in results if value is not None]
        failure: ClassifyFailureReport | None = None
        if report.degraded:
            failure = ClassifyFailureReport(
                quarantined=report.quarantined, chunks=len(tasks)
            )
            checkpoint.write_report(failure.to_json())
        rows = self._merge(partials)
        return ClassifyResult(
            rows=rows,
            baseline_index=self._baseline,
            chunks=len(tasks),
            records=sum(partial.records for partial in partials),
            elapsed=time.perf_counter() - started,
            report=report,
            failure=failure,
        )

    def _version_axis(self) -> VersionAxis:
        if self._axis is None:
            source = self._diff(self._history, self._versions, self._baseline)
            self._axis = VersionAxis.build(source)
        return self._axis

    @collector_paused()
    def _merge(self, partials: Sequence[ChunkPartial]) -> tuple[VersionRow, ...]:
        """Version-at-a-time merge over the chunks' spill deltas.

        One global ``site -> occurrences`` counter takes slot 0's full
        counters with dict operations, then, for each slot some spill
        lists as filled, every chunk's delta, dropping zeroed sites; the
        other slots keep the numbers before them.  The largest site is
        tracked through the deltas and rescanned only when a site at the
        maximum shrinks — a ``max`` per version would cost O(sites) x versions.
        """
        hostnames = sum(partial.hostnames for partial in partials)
        skipped_hosts = sum(partial.skipped_hosts for partial in partials)
        skipped_pairs = sum(partial.skipped_pairs for partial in partials)
        total_pairs = sum(partial.total_pairs for partial in partials)
        readers = [SpillReader(partial.spill.path) for partial in partials]
        counter: dict[str, int] = {}
        rows: list[VersionRow] = []
        try:
            for reader in readers:
                full = reader.read(0)
                shared = {site: counter[site] + full[site] for site in counter.keys() & full.keys()}
                counter.update(full)
                counter.update(shared)
            largest = max(counter.values(), default=0)
            filled = set().union(*(reader.filled for reader in readers))
            for slot, version_index in enumerate(self._versions):
                if slot and slot in filled:
                    get = counter.get
                    shrunk_largest = False
                    for reader in readers:
                        for site, delta in reader.read(slot).items():
                            old = get(site, 0)
                            value = old + delta
                            if value:
                                counter[site] = value
                            else:
                                del counter[site]
                            if value > largest:
                                largest = value
                            elif old == largest and delta < 0:
                                shrunk_largest = True
                    if shrunk_largest:
                        largest = max(counter.values(), default=0)
                rows.append(
                    VersionRow(
                        version_index=version_index,
                        trie_fingerprint=self._fingerprint(version_index),
                        sites=StreamedSiteCounts(
                            hostnames=hostnames,
                            sites=len(counter),
                            largest_site=largest,
                            skipped=skipped_hosts,
                        ),
                        third_party=StreamedThirdPartyCounts(
                            third_party=sum(p.third_party[slot] for p in partials),
                            total=total_pairs,
                            skipped=skipped_pairs,
                        ),
                        misclassified_hostnames=sum(
                            p.misclassified[slot] for p in partials
                        ),
                    )
                )
        finally:
            for reader in readers:
                reader.close()
        return tuple(rows)


class _Tasks(Sequence[ClassifyTask]):
    """A run's tasks, made as the executor reads them.

    The executor reads only the tasks it runs, and the first read
    builds the engine's axis, so a run whose every chunk resumes from
    the ledger builds none.
    """

    def __init__(
        self,
        refs: Sequence[ColumnarChunk | SyntheticChunkRef | SpooledChunkRef],
        axis: Callable[[], VersionAxis],
        spill_dir: str,
    ) -> None:
        self._refs = refs
        self._axis = axis
        self._spill_dir = spill_dir

    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, position: int) -> ClassifyTask:
        return ClassifyTask(ref=self._refs[position], axis=self._axis(), spill_dir=self._spill_dir)
