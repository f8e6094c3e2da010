"""Tests for the version store."""

import datetime
import pickle

import pytest

from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.rules import Rule


def _rules(*texts):
    return [Rule.parse(text) for text in texts]


def _store(snapshot_interval=2):
    store = VersionStore(snapshot_interval=snapshot_interval)
    store.commit_rules(datetime.date(2007, 3, 22), added=_rules("com", "net"))
    store.commit_rules(datetime.date(2008, 1, 1), added=_rules("co.uk"))
    store.commit_rules(datetime.date(2009, 1, 1), added=_rules("*.ck"), removed=_rules("net"))
    store.commit_rules(datetime.date(2010, 1, 1), added=_rules("github.io"))
    return store


class TestCommit:
    def test_lengths_and_counts(self):
        store = _store()
        assert len(store) == 4
        assert [v.rule_count for v in store] == [2, 3, 3, 4]

    def test_empty_delta_rejected(self):
        store = _store()
        with pytest.raises(ValueError):
            store.commit(datetime.date(2011, 1, 1), RuleDelta(frozenset(), frozenset()))

    def test_non_monotone_date_rejected(self):
        store = _store()
        with pytest.raises(ValueError):
            store.commit_rules(datetime.date(2001, 1, 1), added=_rules("dev"))

    def test_same_day_commits_allowed(self):
        store = _store()
        store.commit_rules(store.latest.date, added=_rules("dev"))
        assert len(store) == 5

    def test_removing_absent_rule_rejected(self):
        store = _store()
        with pytest.raises(ValueError):
            store.commit_rules(datetime.date(2011, 1, 1), removed=_rules("nope.example"))

    def test_adding_duplicate_rule_rejected(self):
        store = _store()
        with pytest.raises(ValueError):
            store.commit_rules(datetime.date(2011, 1, 1), added=_rules("com"))

    def test_commit_hashes_chain(self):
        first = _store()
        second = _store()
        assert [v.commit for v in first] == [v.commit for v in second]

    def test_commit_hash_depends_on_content(self):
        store = _store()
        other = VersionStore()
        other.commit_rules(datetime.date(2007, 3, 22), added=_rules("com", "org"))
        assert store.version(0).commit != other.version(0).commit


class TestCheckout:
    def test_rules_at_each_version(self):
        store = _store()
        assert {r.text for r in store.rules_at(0)} == {"com", "net"}
        assert {r.text for r in store.rules_at(2)} == {"com", "co.uk", "*.ck"}
        assert {r.text for r in store.rules_at(-1)} == {"com", "co.uk", "*.ck", "github.io"}

    def test_rules_at_crosses_snapshots(self):
        # snapshot_interval=2: version 3 replays from the snapshot at 2.
        store = _store(snapshot_interval=2)
        assert len(store.rules_at(3)) == 4

    def test_rules_at_large_interval(self):
        store = _store(snapshot_interval=100)
        assert {r.text for r in store.rules_at(3)} == {"com", "co.uk", "*.ck", "github.io"}

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            _store().rules_at(99)

    def test_checkout_builds_working_psl(self):
        psl = _store().checkout(2)
        assert psl.public_suffix("a.b.ck") == "b.ck"

    def test_checkout_cached(self):
        store = _store()
        assert store.checkout(1) is store.checkout(1)

    def test_checkout_negative_index(self):
        store = _store()
        assert store.checkout(-1) == store.checkout(3)

    def test_latest(self):
        assert _store().latest.index == 3

    def test_latest_on_empty_store(self):
        with pytest.raises(IndexError):
            VersionStore().latest


class TestDateQueries:
    def test_exact_date(self):
        store = _store()
        version = store.version_at_date(datetime.date(2008, 1, 1))
        assert version.index == 1

    def test_between_versions(self):
        store = _store()
        assert store.version_at_date(datetime.date(2008, 6, 1)).index == 1

    def test_before_first_is_none(self):
        store = _store()
        assert store.version_at_date(datetime.date(2000, 1, 1)) is None

    def test_after_last_is_latest(self):
        store = _store()
        assert store.version_at_date(datetime.date(2030, 1, 1)).index == 3

    def test_checkout_date(self):
        store = _store()
        psl = store.checkout_date(datetime.date(2009, 6, 1))
        assert "github.io" not in psl

    def test_checkout_date_before_history(self):
        assert _store().checkout_date(datetime.date(2000, 1, 1)) is None


class TestDeltaBetween:
    def test_forward(self):
        store = _store()
        delta = store.delta_between(0, 3)
        assert {r.text for r in delta.added} == {"co.uk", "*.ck", "github.io"}
        assert {r.text for r in delta.removed} == {"net"}

    def test_backward_is_inverse(self):
        store = _store()
        assert store.delta_between(3, 0) == store.delta_between(0, 3).invert()

    def test_zero_span(self):
        assert not _store().delta_between(2, 2)


class TestDigestIndex:
    def test_find_by_digest(self):
        store = _store()
        version = store.version(2)
        assert store.find_by_digest(version.set_digest) is version

    def test_unknown_digest(self):
        assert _store().find_by_digest(12345) is None

    def test_digest_reflects_rule_set_not_history(self):
        # Same final rule set via different histories -> same digest.
        direct = VersionStore()
        direct.commit_rules(datetime.date(2020, 1, 1), added=_rules("com", "co.uk"))
        indirect = VersionStore()
        indirect.commit_rules(datetime.date(2020, 1, 1), added=_rules("com", "net"))
        indirect.commit_rules(
            datetime.date(2020, 2, 1), added=_rules("co.uk"), removed=_rules("net")
        )
        assert direct.latest.set_digest == indirect.latest.set_digest


class TestFingerprintStamps:
    def test_each_version_is_stamped_with_its_checkout_fingerprint(self):
        store = _store()
        assert [version.fingerprint for version in store] == [
            store.checkout(index).fingerprint for index in range(len(store))
        ]

    def test_commit_after_a_pickle_round_trip_stamps_correctly(self):
        """The sorted tip behind the stamps stays out of the pickle (a
        loaded store holds only the hex stamps) and the next commit
        rebuilds it from the tip."""
        payload = pickle.dumps(_store())
        assert b"SortedRuleSet" not in payload
        loaded = pickle.loads(payload)
        version = loaded.commit_rules(
            datetime.date(2011, 1, 1), added=_rules("pages.dev"), removed=_rules("com")
        )
        assert version.fingerprint == loaded.checkout(-1).fingerprint
