"""Tests for third-party request classification.

The one-shot count is the per-version reference; ``TestIncremental``
holds the classify engine's count across list versions (the only
incremental one, behind :func:`run_sweep`) to it on every checkout.
"""

import datetime

from repro.analysis.boundaries import run_sweep
from repro.history.store import VersionStore
from repro.psl.rules import Rule
from repro.webgraph.archive import Snapshot
from repro.webgraph.records import Page
from repro.webgraph.sites import group_sites
from repro.webgraph.thirdparty import count_third_party


def _rules(*texts):
    return [Rule.parse(text) for text in texts]


def _snapshot():
    snap = Snapshot()
    snap.add_page(Page("www.shop.com", ("cdn.shop.com", "ads.tracker.com")))
    snap.add_page(Page("a.pages.io", ("b.pages.io", "a.pages.io")))
    return snap


def _store(initial, *deltas):
    """Version 0 holds ``initial``; each ``(added, removed)`` adds one."""
    store = VersionStore()
    day = datetime.date(2020, 1, 1)
    store.commit_rules(day, added=initial)
    for added, removed in deltas:
        day += datetime.timedelta(days=1)
        store.commit_rules(day, added=_rules(*added), removed=_rules(*removed))
    return store


def _third_party_series(store, snap):
    return [point.third_party_requests for point in run_sweep(store, snap).points]


class TestOneShot:
    def test_counts(self, small_psl):
        snap = _snapshot()
        assignment = group_sites(small_psl, snap.hostnames)
        # cdn.shop.com first-party, ads.tracker.com third-party;
        # pages.io unknown suffix -> a/b.pages.io same site (pages.io).
        assert count_third_party(assignment, snap) == 1

    def test_self_request_is_first_party(self, small_psl):
        snap = Snapshot()
        snap.add_page(Page("a.com", ("a.com",)))
        assignment = group_sites(small_psl, snap.hostnames)
        assert count_third_party(assignment, snap) == 0


class TestIncremental:
    def test_initial_count_matches_one_shot(self, small_psl):
        snap = _snapshot()
        sweep = run_sweep(_store(small_psl.rules), snap)
        assignment = group_sites(small_psl, snap.hostnames)
        assert sweep.first.third_party_requests == count_third_party(assignment, snap)
        assert sweep.total_requests == snap.request_count

    def test_update_after_rule_addition(self):
        snap = _snapshot()
        store = _store(_rules("com", "io"), (["pages.io"], []))
        before, after = _third_party_series(store, snap)
        assert before == 1  # a/b.pages.io same site -> only ads is third-party
        # The cross-tenant request b.pages.io is now third-party too.
        assert after == before + 1

    def test_update_is_consistent_with_recount(self):
        snap = _snapshot()
        store = _store(
            _rules("com"), (["io"], []), (["pages.io"], []), ([], ["pages.io"])
        )
        recount = [
            count_third_party(group_sites(store.checkout(index), snap.hostnames), snap)
            for index in range(len(store))
        ]
        assert _third_party_series(store, snap) == recount

    def test_update_with_no_changes(self, small_psl):
        snap = _snapshot()
        # A rule no hostname of the snapshot sits under.
        store = _store(small_psl.rules, (["unrelated.example"], []))
        before, after = _third_party_series(store, snap)
        assert after == before
