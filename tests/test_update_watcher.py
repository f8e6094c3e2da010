"""Tests for repro.update.watcher: the fault-tolerant ingest loop.

These pin the robustness contract the soak exercises at scale:
validated-before-published ingest, bounded deterministic retries,
quarantine + full-snapshot resync (no head-of-line blocking), the
last-good fallback, and byte-identical journal replay.
"""

from __future__ import annotations

import datetime
import threading

import pytest

from repro.history.store import VersionStore
from repro.runtime.executor import RetryPolicy
from repro.serve.snapshots import SnapshotRegistry
from repro.update.slo import HealthState, SloPolicy
from repro.runtime.faults import Fault, FaultPlan
from repro.update.upstream import (
    ALWAYS,
    HEAD_KEY,
    SyntheticUpstream,
    UpstreamFaultKind,
    full_key,
    patch_key,
)
from repro.update.watcher import IngestJournal, Watcher, WatcherConfig

from tests.test_update_upstream import make_truth

TODAY = datetime.date(2022, 6, 2)  # one day past the truth tip


def make_prefix(truth: VersionStore, count: int) -> VersionStore:
    store = VersionStore()
    for version in truth.versions[:count]:
        store.commit(version.date, version.delta, message=version.message)
    return store


def make_watcher(
    truth: VersionStore,
    *,
    behind: int = 3,
    plan: FaultPlan | None = None,
    **config_overrides,
) -> tuple[Watcher, SnapshotRegistry, SyntheticUpstream]:
    registry = SnapshotRegistry(make_prefix(truth, len(truth) - behind))
    upstream = SyntheticUpstream(truth, plan=plan, sleep=lambda _: None)
    config = WatcherConfig(
        poll_interval=0.01,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        slo=SloPolicy(max_age_days=365, max_versions_behind=1, max_failed_polls=3),
        **config_overrides,
    )
    watcher = Watcher(
        registry, upstream, config=config, sleep=lambda _: None, today=lambda: TODAY
    )
    return watcher, registry, upstream


@pytest.fixture()
def truth() -> VersionStore:
    return make_truth()


class TestHappyPath:
    def test_one_poll_catches_up_completely(self, truth):
        watcher, registry, _ = make_watcher(truth, behind=3)
        records = watcher.poll_once()
        assert [r.action for r in records] == ["accepted"] * 3
        assert [r.upstream_index for r in records] == [3, 4, 5]
        assert len(registry.store) == len(truth)
        assert registry.active.fingerprint == truth.checkout(5).fingerprint
        status = watcher.status()
        assert status.versions_behind == 0
        assert status.state is HealthState.FRESH

    def test_each_accepted_version_hot_swaps_atomically(self, truth):
        watcher, registry, _ = make_watcher(truth, behind=3)
        generation_before = registry.generation
        watcher.poll_once()
        assert registry.generation == generation_before + 3
        # The ingested snapshot is the list built from the validated delta.
        assert not registry.active.packed
        assert registry.active.fingerprint == truth.checkout(5).fingerprint

    def test_commit_chain_matches_the_upstream_history(self, truth):
        watcher, registry, _ = make_watcher(truth, behind=3)
        watcher.poll_once()
        # Same dates + deltas committed in order → identical hash chain.
        assert [v.commit for v in registry.store.versions] == [
            v.commit for v in truth.versions
        ]

    def test_nothing_new_is_a_quiet_poll(self, truth):
        watcher, registry, _ = make_watcher(truth, behind=0)
        assert watcher.poll_once() == ()
        assert len(watcher.journal) == 0
        assert watcher.status().state is HealthState.FRESH

    def test_upstream_publishing_is_picked_up_incrementally(self, truth):
        registry = SnapshotRegistry(make_prefix(truth, 4))
        upstream = SyntheticUpstream(truth, published=3, sleep=lambda _: None)
        watcher = Watcher(
            registry, upstream, sleep=lambda _: None, today=lambda: TODAY
        )
        assert watcher.poll_once() == ()
        upstream.publish_next()
        assert [r.upstream_index for r in watcher.poll_once()] == [4]
        upstream.publish_next()
        assert [r.upstream_index for r in watcher.poll_once()] == [5]
        assert registry.active.fingerprint == truth.checkout(5).fingerprint


class TestRetries:
    def test_transient_fault_is_retried_within_the_poll(self, truth):
        plan = FaultPlan(
            faults={patch_key(3): Fault(UpstreamFaultKind.UNREACHABLE, attempts=2)}
        )
        watcher, registry, _ = make_watcher(truth, plan=plan)
        records = watcher.poll_once()
        assert records[0].action == "accepted"
        assert records[0].attempts == 3  # two faults + one success
        assert len(registry.store) == len(truth)

    def test_truncated_body_is_retried_to_success(self, truth):
        plan = FaultPlan(
            faults={patch_key(4): Fault(UpstreamFaultKind.TRUNCATE, attempts=1)}
        )
        watcher, registry, _ = make_watcher(truth, plan=plan)
        by_index = {r.upstream_index: r for r in watcher.poll_once()}
        assert by_index[4].action == "accepted"
        assert by_index[4].attempts == 2

    def test_backoff_follows_the_retry_policy(self, truth):
        slept: list[float] = []
        plan = FaultPlan(
            faults={HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=2)}
        )
        registry = SnapshotRegistry(make_prefix(truth, 3))
        upstream = SyntheticUpstream(truth, plan=plan, sleep=lambda _: None)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_cap=10.0)
        watcher = Watcher(
            registry,
            upstream,
            config=WatcherConfig(retry=policy),
            sleep=slept.append,
            today=lambda: TODAY,
        )
        watcher.poll_once()
        # Attempt 1: no delay; attempts 2..3 follow the deterministic
        # exponential schedule.
        assert slept[:2] == [policy.backoff(2), policy.backoff(3)]


class TestQuarantine:
    def test_poisoned_patch_is_quarantined_not_blocking(self, truth):
        plan = FaultPlan(
            faults={
                patch_key(4): Fault(UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS)
            }
        )
        watcher, registry, _ = make_watcher(truth, plan=plan)
        records = watcher.poll_once()
        actions = {r.upstream_index: r.action for r in records}
        assert actions == {3: "accepted", 4: "quarantined", 5: "resynced"}
        assert 4 in watcher.quarantined
        assert "apply cleanly" in watcher.quarantined[4]
        # v5 arrived through the full-snapshot path: the final rule set
        # still matches upstream exactly (v4 was an add-only version).
        assert registry.active.rule_count == truth.latest.rule_count

    def test_bad_checksum_forever_quarantines(self, truth):
        plan = FaultPlan(
            faults={
                patch_key(4): Fault(UpstreamFaultKind.BAD_CHECKSUM, attempts=ALWAYS)
            }
        )
        watcher, _, _ = make_watcher(truth, plan=plan)
        by_index = {r.upstream_index: r for r in watcher.poll_once()}
        assert by_index[4].action == "quarantined"
        assert "checksum" in by_index[4].reason
        assert by_index[5].action == "resynced"

    def test_resync_itself_retries_transient_faults(self, truth):
        plan = FaultPlan(
            faults={
                patch_key(4): Fault(UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS),
                full_key(5): Fault(UpstreamFaultKind.UNREACHABLE, attempts=1),
            }
        )
        watcher, registry, _ = make_watcher(truth, plan=plan)
        by_index = {r.upstream_index: r for r in watcher.poll_once()}
        assert by_index[5].action == "resynced"
        assert by_index[5].attempts == 2
        assert registry.active.rule_count == truth.latest.rule_count

    def test_all_versions_poisoned_leaves_last_good_serving(self, truth):
        plan = FaultPlan(
            faults={
                patch_key(i): Fault(UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS)
                for i in (3, 4, 5)
            }
            | {
                full_key(i): Fault(UpstreamFaultKind.UNREACHABLE, attempts=ALWAYS)
                for i in (3, 4, 5)
            }
        )
        watcher, registry, _ = make_watcher(truth, plan=plan)
        before = registry.active
        records = watcher.poll_once()
        assert all(r.action == "quarantined" for r in records)
        # Last-good fallback: nothing published, nothing committed.
        assert registry.active is before
        assert len(registry.store) == len(truth) - 3

    def test_head_outage_is_a_failed_poll(self, truth):
        plan = FaultPlan(
            faults={HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=ALWAYS)}
        )
        watcher, _, _ = make_watcher(truth, plan=plan)
        (record,) = watcher.poll_once()
        assert record.action == "poll_failed"
        assert "unreachable" in record.reason
        assert watcher.status().consecutive_failed_polls == 1
        watcher.poll_once()
        watcher.poll_once()
        assert watcher.status().state is HealthState.DEGRADED

    def test_failed_polls_reset_on_recovery(self, truth):
        plan = FaultPlan(
            # Fails the whole first poll (3 retry attempts), then heals.
            faults={HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=3)}
        )
        watcher, _, _ = make_watcher(truth, plan=plan)
        watcher.poll_once()
        assert watcher.status().consecutive_failed_polls == 1
        watcher.poll_once()
        status = watcher.status()
        assert status.consecutive_failed_polls == 0
        assert status.versions_behind == 0


class TestReplay:
    FULL_PLAN = {
        HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=3),
        patch_key(3): Fault(UpstreamFaultKind.TRUNCATE, attempts=1),
        patch_key(4): Fault(UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS),
        full_key(5): Fault(UpstreamFaultKind.UNREACHABLE, attempts=1),
    }

    def run(self, truth, polls: int) -> Watcher:
        watcher, _, _ = make_watcher(truth, plan=FaultPlan(faults=self.FULL_PLAN))
        for _ in range(polls):
            watcher.poll_once()
        return watcher

    def test_identical_runs_produce_byte_identical_journals(self, truth):
        first = self.run(truth, polls=3)
        second = self.run(truth, polls=3)
        assert first.journal.to_json() == second.journal.to_json()
        assert first.journal.lineage() == second.journal.lineage()
        assert first.registry.active.fingerprint == second.registry.active.fingerprint

    def test_journal_round_trips_through_json(self, truth):
        watcher = self.run(truth, polls=2)
        restored = IngestJournal.from_json(watcher.journal.to_json())
        assert restored.records == watcher.journal.records
        assert restored.counts() == watcher.journal.counts()

    def test_journal_contains_no_wall_clock_fields(self, truth):
        watcher = self.run(truth, polls=2)
        for record in watcher.journal:
            assert set(record.to_json()) == {
                "poll", "upstream_index", "action", "source", "attempts",
                "reason", "date", "commit", "fingerprint",
            }


class TestModes:
    def test_activate_false_ingests_without_publishing(self, truth):
        watcher, registry, _ = make_watcher(truth, activate=False)
        before = registry.active
        watcher.poll_once()
        assert registry.active is before  # pinned version keeps serving
        assert len(registry.store) == len(truth)  # but history is current
        assert watcher.status().versions_behind == 0

    def test_run_loop_honours_polls_and_stop(self, truth):
        watcher, _, upstream = make_watcher(truth, behind=1)
        watcher.run(polls=2)
        assert watcher.status().polls == 2
        stop = threading.Event()
        stop.set()
        watcher.run(stop=stop)  # stops after its first poll
        assert watcher.status().polls == 3

    def test_background_thread_lifecycle(self, truth):
        watcher, _, _ = make_watcher(truth, behind=1)
        watcher.start()
        assert watcher.running
        with pytest.raises(RuntimeError):
            watcher.start()
        assert watcher.stop(timeout=5)
        assert not watcher.running

    def test_unexpected_exception_becomes_a_failed_poll(self, truth):
        watcher, _, upstream = make_watcher(truth, behind=1)
        upstream.head = None  # type: ignore[assignment] - sabotage
        watcher.run(polls=1)
        (record,) = watcher.journal.records
        assert record.action == "poll_failed"
        assert record.reason.startswith("unexpected:")
        assert watcher.status().consecutive_failed_polls == 1
