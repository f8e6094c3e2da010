"""Tests for repro.update.upstream: the faultable synthetic upstream.

The upstream is the deterministic stand-in for publicsuffix/list that
the watcher refreshes from; these tests pin the served surface (head /
patch / full envelopes), the publication model, and every injectable
fault's observable behaviour — including that attempt counting lives
in the upstream, which is what makes whole runs replayable.
"""

from __future__ import annotations

import datetime

import pytest

from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.rules import Rule
from repro.runtime.faults import Fault, FaultKind, FaultPlan
from repro.update.upstream import (
    ALWAYS,
    HEAD_KEY,
    SyntheticUpstream,
    UpstreamFaultKind,
    UpstreamTimeout,
    UpstreamUnreachable,
    body_checksum,
    full_body,
    full_key,
    parse_full_body,
    patch_key,
)


def make_truth() -> VersionStore:
    """Six versions, each changing the rule set distinctly."""
    store = VersionStore()
    store.commit_rules(
        datetime.date(2020, 1, 1),
        added=[Rule.parse(t) for t in ("com", "net", "org", "uk", "io", "jp")],
    )
    store.commit_rules(datetime.date(2020, 6, 1), added=[Rule.parse("co.uk")])
    store.commit_rules(datetime.date(2021, 1, 1), added=[Rule.parse("github.io")])
    store.commit_rules(
        datetime.date(2021, 6, 1),
        added=[Rule.parse("*.kawasaki.jp"), Rule.parse("!city.kawasaki.jp")],
    )
    store.commit_rules(
        datetime.date(2022, 1, 1),
        added=[Rule.parse("ac.uk")],
        removed=[Rule.parse("github.io")],
    )
    store.commit_rules(datetime.date(2022, 6, 1), added=[Rule.parse("dev")])
    return store


@pytest.fixture()
def truth() -> VersionStore:
    return make_truth()


class TestPublication:
    def test_head_defaults_to_the_newest_version(self, truth):
        upstream = SyntheticUpstream(truth)
        head = upstream.head()
        latest = truth.latest
        assert head.index == latest.index == len(truth) - 1
        assert head.date == latest.date
        assert head.commit == latest.commit
        assert head.rule_count == latest.rule_count
        assert head.set_digest == latest.set_digest

    def test_publish_next_grows_the_visible_head(self, truth):
        upstream = SyntheticUpstream(truth, published=2)
        assert upstream.head().index == 2
        assert upstream.publish_next() == 3
        assert upstream.head().index == 3

    def test_advance_to_is_monotone_only(self, truth):
        upstream = SyntheticUpstream(truth, published=3)
        with pytest.raises(ValueError):
            upstream.advance_to(1)
        assert upstream.advance_to(5) == 5
        with pytest.raises(ValueError):
            upstream.publish_next()  # nothing left

    def test_unpublished_versions_are_invisible(self, truth):
        upstream = SyntheticUpstream(truth, published=2)
        with pytest.raises(UpstreamUnreachable):
            upstream.patch(3)
        with pytest.raises(UpstreamUnreachable):
            upstream.full(4)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            SyntheticUpstream(VersionStore())


class TestEnvelopes:
    def test_patch_envelope_round_trips_the_delta(self, truth):
        upstream = SyntheticUpstream(truth)
        envelope = upstream.patch(4)
        assert envelope.kind == "patch"
        assert body_checksum(envelope.body) == envelope.checksum
        delta = RuleDelta.from_patch(envelope.body)
        assert delta == truth.version(4).delta

    def test_full_envelope_carries_the_complete_rule_set(self, truth):
        upstream = SyntheticUpstream(truth)
        envelope = upstream.full(3)
        assert envelope.kind == "full"
        assert body_checksum(envelope.body) == envelope.checksum
        assert parse_full_body(envelope.body) == truth.rules_at(3)

    def test_full_body_is_canonical(self, truth):
        rules = truth.rules_at(5)
        assert full_body(rules) == full_body(frozenset(rules))
        assert parse_full_body(full_body(rules)) == rules

    def test_parse_full_body_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_full_body("not a snapshot")
        with pytest.raises(ValueError):
            parse_full_body("# psl-full v1\nno-separator-line")
        with pytest.raises(ValueError):
            parse_full_body("# psl-full v1\nnosuchsection:com")

    def test_call_log_records_every_fetch_with_attempts(self, truth):
        upstream = SyntheticUpstream(truth)
        upstream.head()
        upstream.patch(2)
        upstream.patch(2)
        upstream.full(1)
        assert upstream.calls == [
            (HEAD_KEY, 1),
            (patch_key(2), 1),
            (patch_key(2), 2),
            (full_key(1), 1),
        ]


class TestFaults:
    def test_unreachable_clears_after_its_attempts(self, truth):
        plan = FaultPlan(
            faults={HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=2)}
        )
        upstream = SyntheticUpstream(truth, plan=plan)
        with pytest.raises(UpstreamUnreachable):
            upstream.head()
        with pytest.raises(UpstreamUnreachable):
            upstream.head()
        assert upstream.head().index == len(truth) - 1  # attempt 3 succeeds

    def test_always_never_clears(self, truth):
        plan = FaultPlan(
            faults={patch_key(1): Fault(UpstreamFaultKind.UNREACHABLE, attempts=ALWAYS)}
        )
        upstream = SyntheticUpstream(truth, plan=plan)
        for _ in range(5):
            with pytest.raises(UpstreamUnreachable):
                upstream.patch(1)

    def test_hang_past_the_deadline_times_out(self, truth):
        slept: list[float] = []
        plan = FaultPlan(
            faults={HEAD_KEY: Fault(UpstreamFaultKind.HANG, hang_seconds=30.0)}
        )
        upstream = SyntheticUpstream(
            truth, plan=plan, client_timeout=2.0, sleep=slept.append
        )
        with pytest.raises(UpstreamTimeout):
            upstream.head()
        # The client waits only its own deadline, not the full hang.
        assert slept == [2.0]
        assert upstream.head().index == len(truth) - 1

    def test_hang_below_the_deadline_is_merely_slow(self, truth):
        slept: list[float] = []
        plan = FaultPlan(
            faults={HEAD_KEY: Fault(UpstreamFaultKind.HANG, hang_seconds=1.0)}
        )
        upstream = SyntheticUpstream(
            truth, plan=plan, client_timeout=2.0, sleep=slept.append
        )
        assert upstream.head().index == len(truth) - 1
        assert slept == [1.0]

    def test_truncate_is_caught_by_the_checksum(self, truth):
        plan = FaultPlan(
            faults={patch_key(3): Fault(UpstreamFaultKind.TRUNCATE)}
        )
        upstream = SyntheticUpstream(truth, plan=plan)
        envelope = upstream.patch(3)
        assert body_checksum(envelope.body) != envelope.checksum
        clean = upstream.patch(3)  # attempt 2: fault cleared
        assert body_checksum(clean.body) == clean.checksum

    def test_bad_checksum_serves_intact_body_under_wrong_digest(self, truth):
        plan = FaultPlan(
            faults={patch_key(3): Fault(UpstreamFaultKind.BAD_CHECKSUM)}
        )
        upstream = SyntheticUpstream(truth, plan=plan)
        envelope = upstream.patch(3)
        assert body_checksum(envelope.body) != envelope.checksum
        assert RuleDelta.from_patch(envelope.body) == truth.version(3).delta

    def test_corrupt_patch_passes_checksum_but_cannot_apply(self, truth):
        plan = FaultPlan(
            faults={patch_key(3): Fault(UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS)}
        )
        upstream = SyntheticUpstream(truth, plan=plan)
        envelope = upstream.patch(3)
        # The poison survives the transport checks: only apply-time
        # validation can catch it.
        assert body_checksum(envelope.body) == envelope.checksum
        delta = RuleDelta.from_patch(envelope.body)
        poisoned = delta.removed - truth.rules_at(2)
        assert poisoned  # removes a rule that never existed

    def test_corrupt_full_snapshot_fails_to_parse(self, truth):
        plan = FaultPlan(
            faults={full_key(3): Fault(UpstreamFaultKind.CORRUPT_PATCH)}
        )
        upstream = SyntheticUpstream(truth, plan=plan)
        envelope = upstream.full(3)
        assert body_checksum(envelope.body) == envelope.checksum
        with pytest.raises(ValueError):
            parse_full_body(envelope.body)


class TestFaultPlan:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            faults={
                HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=3),
                patch_key(7): Fault(
                    UpstreamFaultKind.HANG, attempts=ALWAYS, hang_seconds=1.5
                ),
            }
        )
        assert FaultPlan.from_json(plan.to_json(), UpstreamFaultKind) == plan

    def test_runtime_kinds_share_the_json_shape(self):
        plan = FaultPlan(faults={"chunk-3": Fault(FaultKind.HANG, attempts=2, hang_seconds=0.5)})
        assert FaultPlan.from_json(plan.to_json(), FaultKind) == plan

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault(UpstreamFaultKind.UNREACHABLE, attempts=0)
        with pytest.raises(ValueError):
            Fault(UpstreamFaultKind.HANG, hang_seconds=-1.0)

    def test_fault_for_respects_attempt_windows(self):
        plan = FaultPlan(
            faults={HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=2)}
        )
        assert plan.fault_for(HEAD_KEY, 1) is not None
        assert plan.fault_for(HEAD_KEY, 2) is not None
        assert plan.fault_for(HEAD_KEY, 3) is None
        assert plan.fault_for("patch:0", 1) is None
