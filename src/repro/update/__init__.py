"""The live-list update loop: the counterexample to vendored staleness.

The paper's central harm is the *stale vendored copy*: a project
snapshots the Public Suffix List once and silently drifts for years
(EXPERIMENTS.md's refresh-policy counterfactual: a 365-day maximum
list age removes >80% of the measured misclassified hostnames).
:mod:`repro.update` makes our own serving tier the counterexample — a
loop that continuously ingests new list versions, survives every
upstream failure mode, and monitors its *own* staleness as a
first-class SLO.

Layering::

    SyntheticUpstream  (upstream.py)  the version history served as a
         |                            faultable remote: dated patch /
         |                            full-snapshot envelopes behind a
         |                            deterministic runtime FaultPlan
    Watcher            (watcher.py)   poll -> validate (checksum,
         |                            parse, clean apply, digest,
         |                            packed CRC) -> atomic hot-swap
         |                            via SnapshotRegistry.ingest;
         |                            quarantine + full-snapshot
         |                            resync; IngestJournal replay log
    SLO layer          (slo.py)       fresh / stale / degraded health
         |                            from age, versions-behind, and
         |                            failed polls; /healthz + gauges
    psl-update         (cli.py)       the fault-plan soak: every
                                      failure mode injected under live
                                      client load, zero failed
                                      requests, exact lineage, replay

See ``docs/runbook.md`` for the operator's view and
``make update-faults`` / ``make bench-update`` for the gates.
"""

from repro.update.slo import HealthState, SloPolicy, UpdateStatus, evaluate
from repro.update.upstream import (
    HeadInfo,
    SyntheticUpstream,
    UpstreamError,
    UpstreamFaultKind,
    UpstreamTimeout,
    UpstreamUnreachable,
    VersionEnvelope,
)
from repro.update.watcher import (
    IngestJournal,
    IngestRecord,
    UpdateValidationError,
    Watcher,
    WatcherConfig,
)

__all__ = [
    "HeadInfo",
    "HealthState",
    "IngestJournal",
    "IngestRecord",
    "SloPolicy",
    "SyntheticUpstream",
    "UpdateStatus",
    "UpdateValidationError",
    "UpstreamError",
    "UpstreamFaultKind",
    "UpstreamTimeout",
    "UpstreamUnreachable",
    "VersionEnvelope",
    "Watcher",
    "WatcherConfig",
    "evaluate",
]
