"""Bulk offline classification at HTTP-Archive scale.

The paper's headline numbers come from classifying 498M requests under
every historical PSL version.  This package is that workload tier for
the reproduction: a batch engine that streams request logs in columnar
chunks through multiprocess workers, classifying every record under a
configurable set of PSL versions in one pass, and emitting per-version
site and third-party count tables plus a misclassification delta
versus the latest list.  The versions come from the packed ``PSLPAK1``
history blob (:mod:`repro.psl.packed`), diffed once by the engine, or
from a :class:`~repro.history.store.VersionStore`; either way the
engine builds them once into one interval-stamped rule trie
(:mod:`repro.psl.intervals`) that every worker task shares, walking
each hostname once.  It is
also the engine under Figures 5-7, where a web snapshot's hostnames
and request pairs arrive as in-memory chunks
(:func:`~repro.classify.columnar.snapshot_chunks`).

Layer map (each composes an existing platform layer):

* :mod:`repro.classify.columnar` — ingest: hostname-interned columnar
  chunks behind :func:`repro.net.hostname.normalize_or_reject`
  (malformed rows are counted-and-skipped, never abort a chunk), plus
  chunk *references* small enough to pickle to workers, plus the
  snapshot chunk planner;
* :mod:`repro.classify.partials` — the worker: one chunk × all
  versions, spilling per-version site counters to disk delta-encoded
  so worker memory stays O(one version);
* :mod:`repro.classify.engine` — the driver over
  :class:`repro.runtime.ResilientExecutor` (retries, quarantine,
  chunk-granular checkpoint/resume) with a version-at-a-time merge;
* :mod:`repro.classify.cli` — ``psl-classify``, including the
  ``--frontier`` scale harness.
"""

from repro.classify.columnar import (
    SNAPSHOT_CHUNK_HOSTS,
    ColumnarChunk,
    SpooledChunkRef,
    SyntheticChunkRef,
    columnar_chunk,
    iter_columnar_chunks,
    snapshot_chunks,
    spool_chunks,
)
from repro.classify.engine import (
    ClassifyEngine,
    ClassifyFailureReport,
    ClassifyResult,
    VersionRow,
    select_version_indexes,
)
from repro.classify.partials import (
    ChunkPartial,
    ClassifyTask,
    SpillRef,
    VersionAxis,
    VersionDeltas,
    classify_chunk,
)

__all__ = [
    "SNAPSHOT_CHUNK_HOSTS",
    "ChunkPartial",
    "ClassifyEngine",
    "ClassifyFailureReport",
    "ClassifyResult",
    "ClassifyTask",
    "ColumnarChunk",
    "SpillRef",
    "SpooledChunkRef",
    "SyntheticChunkRef",
    "VersionAxis",
    "VersionDeltas",
    "VersionRow",
    "classify_chunk",
    "columnar_chunk",
    "iter_columnar_chunks",
    "select_version_indexes",
    "snapshot_chunks",
    "spool_chunks",
]
