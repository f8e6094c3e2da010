"""Figures 5-7: the version sweep over the web snapshot.

One forward pass over the history drives all three figures at once:

* **Figure 5** — the number of sites the snapshot's hostnames form
  under each version;
* **Figure 6** — the number of requests classified third-party under
  each version;
* **Figure 7** — the number of hostnames whose site differs from their
  site under the newest version.

The pass runs on :class:`repro.classify.ClassifyEngine` over the
version store: the engine stamps the history's rule deltas into one
interval trie, once per engine, and each chunk's worker walks every
hostname once through it, reading off the versions where its site
changes; the chunks can fan out over a process pool — that is what makes evaluating all 1,142 versions
against hundreds of thousands of hostnames take seconds instead of
hours.  The per-version ``diff_vs_latest`` record
doubles as the lookup table for Table 3's "# of missing hostnames"
column: a repository vendoring version *v* misclassifies exactly the
hostnames that differ between *v* and the newest list.
"""

from __future__ import annotations

import datetime
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass

from repro.classify import ClassifyEngine, ClassifyFailureReport
from repro.classify.columnar import SNAPSHOT_CHUNK_HOSTS, snapshot_chunks
from repro.history.store import VersionStore
from repro.runtime import FaultPlan
from repro.webgraph.archive import Snapshot


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """The three figures' y-values at one list version."""

    index: int
    date: datetime.date
    site_count: int
    third_party_requests: int
    diff_vs_latest: int


@dataclass(frozen=True, slots=True)
class SweepResult:
    """The full version sweep."""

    points: tuple[SweepPoint, ...]
    total_hostnames: int
    total_requests: int
    #: Set when the underlying engine run quarantined chunks: their
    #: hostnames and requests are excluded from every series here.
    failure_report: ClassifyFailureReport | None = None

    @property
    def first(self) -> SweepPoint:
        return self.points[0]

    @property
    def latest(self) -> SweepPoint:
        return self.points[-1]

    @property
    def additional_sites_latest_vs_first(self) -> int:
        """Figure 5's headline: extra sites under the newest list."""
        return self.latest.site_count - self.first.site_count

    def at_date(self, date: datetime.date) -> SweepPoint:
        """The sweep point of the newest version on or before ``date``."""
        chosen = self.points[0]
        for point in self.points:
            if point.date > date:
                break
            chosen = point
        return chosen

    def yearly(self) -> list[SweepPoint]:
        """Last point of each year — plot-friendly sampling."""
        picked: dict[int, SweepPoint] = {}
        for point in self.points:
            picked[point.date.year] = point
        return [picked[year] for year in sorted(picked)]


def run_sweep(
    store: VersionStore,
    snapshot: Snapshot,
    *,
    workers: int = 1,
    checkpoint_dir: str | None = None,
    resume: bool = True,
    fault_plan: FaultPlan | None = None,
    fingerprint: str | None = None,
) -> SweepResult:
    """Evaluate the snapshot under every version of the history.

    The snapshot is cut by :func:`~repro.classify.columnar.snapshot_chunks`
    and classified under all versions by a
    :class:`~repro.classify.ClassifyEngine` over ``store``; any
    ``workers`` count gives results bit-identical to the serial
    default.  Chunks hold ``SNAPSHOT_CHUNK_HOSTS`` hostnames, fewer when
    a snapshot would otherwise leave a worker idle — so, as the chunking
    keys the checkpoint manifest, a small snapshot resumes only at the
    same ``workers`` count.  ``checkpoint_dir`` is the engine's run directory, so a
    killed sweep re-run with ``resume=True`` restarts from the last
    completed chunk (without one, the run uses a temporary directory).
    A degraded (quarantined-chunk) run carries its
    :class:`~repro.classify.ClassifyFailureReport`.  ``fingerprint``
    optionally identifies the (store, snapshot) universe by an
    already-computed digest — the pipeline's sweep stage passes its own
    artifact fingerprint here, so checkpoint manifests and pipeline
    artifacts share one keying scheme.
    """
    # Full-size chunks, or one per worker when the universe is smaller,
    # so a small snapshot still fans out.
    per_worker = -(-len(snapshot.hostnames) // max(workers, 1))
    chunks = snapshot_chunks(
        snapshot.hostnames,
        snapshot.iter_request_pairs(),
        max(1, min(SNAPSHOT_CHUNK_HOSTS, per_worker)),
    )
    with (
        nullcontext(checkpoint_dir)
        if checkpoint_dir is not None
        else tempfile.TemporaryDirectory(prefix="psl-sweep-")
    ) as run_dir:
        result = ClassifyEngine(
            store,
            version_indexes=range(len(store)),
            workers=workers,
            run_dir=run_dir,
            resume=resume,
            fault_plan=fault_plan,
            fingerprint_context=fingerprint,
        ).run_chunks(chunks)
    points = tuple(
        SweepPoint(
            index=version.index,
            date=version.date,
            site_count=row.sites.sites,
            third_party_requests=row.third_party.third_party,
            diff_vs_latest=row.misclassified_hostnames,
        )
        for version, row in zip(store.versions, result.rows)
    )
    return SweepResult(
        points=points,
        total_hostnames=len(snapshot.hostnames),
        total_requests=snapshot.request_count,
        failure_report=result.failure,
    )
