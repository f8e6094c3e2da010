"""Tests for repro.serve: snapshots, registry hot-swap, query engine.

The concurrency tests here are the satellite task's core requirement:
reader threads issuing lookups while a background thread hot-swaps PSL
versions must never observe a half-built trie, a wrong-version answer,
or a dropped request.
"""

from __future__ import annotations

import datetime
import threading

import pytest

from repro.history.store import VersionStore
from repro.net.errors import HostnameError
from repro.psl.list import PublicSuffixList
from repro.psl.packed import PackedHistory, pack_history
from repro.psl.rules import Rule
from repro.serve.engine import BatchItemError, QueryEngine, SiteAnswer
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry, UnknownVersionError

V0_DATE = datetime.date(2020, 1, 1)
V1_DATE = datetime.date(2021, 1, 1)
V2_DATE = datetime.date(2022, 1, 1)


def make_store() -> VersionStore:
    """A three-version history whose versions answer differently.

    * v0: bare TLDs only — ``www.example.co.uk`` groups as ``co.uk``;
    * v1: adds ``co.uk`` and ``github.io`` — the same hostname now
      groups as ``example.co.uk`` (the paper's stale-copy divergence);
    * v2: adds the Kawasaki wildcard/exception pair.
    """
    store = VersionStore()
    store.commit_rules(
        V0_DATE, added=[Rule.parse(t) for t in ("com", "net", "org", "uk", "io", "jp")]
    )
    store.commit_rules(V1_DATE, added=[Rule.parse("co.uk"), Rule.parse("github.io")])
    store.commit_rules(
        V2_DATE, added=[Rule.parse("*.kawasaki.jp"), Rule.parse("!city.kawasaki.jp")]
    )
    return store


def make_registry(store: VersionStore, backend: str, **kwargs) -> SnapshotRegistry:
    """A registry over either snapshot backend (the packed parity axis)."""
    if backend == "packed":
        packed = PackedHistory.from_buffer(pack_history(store))
        return SnapshotRegistry(store, packed=packed, **kwargs)
    return SnapshotRegistry(store, **kwargs)


@pytest.fixture()
def store() -> VersionStore:
    return make_store()


@pytest.fixture()
def registry(store) -> SnapshotRegistry:
    return SnapshotRegistry(store)


@pytest.fixture()
def engine(registry) -> QueryEngine:
    return QueryEngine(registry)


class TestPslSnapshot:
    def test_snapshot_is_latest_by_default(self, registry):
        active = registry.active
        assert isinstance(active, PslSnapshot)
        assert active.index == 2
        assert active.date == V2_DATE
        assert active.rule_count == 10

    def test_age_days_measures_staleness(self, registry):
        snap = registry.resident(0)
        assert snap.age_days(datetime.date(2020, 1, 31)) == 30

    def test_describe_shape(self, registry):
        described = registry.active.describe()
        assert set(described) == {
            "index", "date", "commit", "rule_count", "fingerprint", "packed",
        }
        assert described["date"] == V2_DATE.isoformat()
        assert described["packed"] is False


class TestResolve:
    def test_int_and_negative(self, registry):
        assert registry.resolve(0) == 0
        assert registry.resolve(-1) == 2

    def test_latest_and_digit_strings(self, registry):
        assert registry.resolve("latest") == 2
        assert registry.resolve("1") == 1
        assert registry.resolve("-1") == 2

    def test_date_resolution_maps_to_newest_at_or_before(self, registry):
        assert registry.resolve("2021-06-15") == 1
        assert registry.resolve(datetime.date(2022, 1, 1)) == 2

    def test_rejections(self, registry):
        for bad in (99, -99, "2019-01-01", "not-a-spec", True, 3.5):
            with pytest.raises(UnknownVersionError):
                registry.resolve(bad)


class TestRegistry:
    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            SnapshotRegistry(VersionStore())

    def test_activate_swaps_atomically_and_counts(self, registry):
        before = registry.active
        swapped = registry.activate(0)
        assert registry.active is swapped
        assert swapped.index == 0
        assert registry.generation == 1
        # The outgoing snapshot object is still fully usable (COW).
        assert before.match("www.example.co.uk").site == "example.co.uk"

    def test_activate_same_version_is_a_noop_swap(self, registry):
        registry.activate("latest")
        assert registry.generation == 0

    def test_resident_keeps_versions_side_by_side(self, registry):
        old = registry.resident(0)
        new = registry.resident("latest")
        assert old.index == 0 and new.index == 2
        assert registry.resident_indexes()[0] == 2  # active first
        assert set(registry.resident_indexes()) == {0, 2}

    def test_resident_lru_never_evicts_active(self, store):
        registry = SnapshotRegistry(store, resident_capacity=1)
        registry.resident(0)
        registry.resident(1)  # evicts 0, never the active 2
        indexes = registry.resident_indexes()
        assert indexes[0] == 2
        assert len(indexes) <= 2

    def test_describe_limit(self, registry):
        full = registry.describe()
        limited = registry.describe(limit=1)
        assert len(full["versions"]) == 3
        assert len(limited["versions"]) == 1
        assert limited["versions"][0]["index"] == 2
        assert registry.describe(limit=0)["versions"] == []

    def test_describe_refuses_a_negative_limit(self, registry):
        with pytest.raises(ValueError, match="non-negative"):
            registry.describe(limit=-1)


class TestQueryEngine:
    def test_site_answers_with_version_metadata(self, engine):
        answer = engine.site("WWW.Example.CO.UK.")
        assert answer.hostname == "www.example.co.uk"
        assert answer.site == "example.co.uk"
        assert answer.public_suffix == "co.uk"
        assert answer.version_index == 2

    def test_site_under_pinned_version(self, engine):
        answer = engine.site("www.example.co.uk", version=0)
        assert answer.site == "co.uk"
        assert answer.version_index == 0

    def test_public_suffix_hostnames_flagged(self, engine):
        answer = engine.site("co.uk")
        assert answer.is_public_suffix is True
        assert answer.registrable_domain is None
        assert answer.site == "co.uk"

    def test_malformed_hostname_raises_structured_error(self, engine):
        with pytest.raises(HostnameError) as excinfo:
            engine.site("bad..name")
        assert excinfo.value.reason

    def test_batch_pins_one_snapshot_and_isolates_errors(self, engine):
        result = engine.batch(["a.example.com", "bad..name", "b.github.io"])
        assert result.version_index == 2
        assert result.ok_count == 2
        assert result.error_count == 1
        kinds = [type(answer) for answer in result.answers]
        assert kinds == [SiteAnswer, BatchItemError, SiteAnswer]
        assert result.to_json()["errors"] == 1

    def test_classify_third_party(self, engine):
        verdict = engine.classify("shop.example.com", "cdn.example.com")
        assert verdict.third_party is False
        verdict = engine.classify("shop.example.com", "t.tracker.net")
        assert verdict.third_party is True

    def test_classify_version_sensitivity(self, engine):
        # Under v0 there is no github.io rule: two tenants share a site.
        stale = engine.classify("alice.github.io", "bob.github.io", version=0)
        fresh = engine.classify("alice.github.io", "bob.github.io")
        assert stale.third_party is False
        assert fresh.third_party is True

    def test_compare_is_the_misclassification_probe(self, engine):
        probe = engine.compare("www.example.co.uk", 0)
        assert probe.old.site == "co.uk"
        assert probe.new.site == "example.co.uk"
        assert probe.diverges is True
        same = engine.compare("www.example.com", 0)
        assert same.diverges is False

    def test_compare_explicit_new_version(self, engine):
        probe = engine.compare("www.example.co.uk", 1, 2)
        assert probe.diverges is False

    def test_answers_follow_swaps_there_and_back(self, engine):
        registry = engine.registry
        assert engine.site("www.example.co.uk").site == "example.co.uk"
        registry.activate(0)
        assert engine.site("www.example.co.uk").site == "co.uk"
        registry.activate("latest")
        assert engine.site("www.example.co.uk").site == "example.co.uk"


@pytest.mark.parametrize("backend", ["dict", "packed"])
class TestConcurrentHotSwap:
    """Readers under live swaps: never a half answer, never a drop.

    Parametrized over both snapshot backends: the packed (flat,
    mmap-able) path must be just as torn-answer-free as the dict path,
    including under LRU eviction of resident packed snapshots.
    """

    READERS = 6
    LOOKUPS_PER_READER = 400
    SWAPS = 120

    def test_lookups_remain_version_consistent_under_swaps(self, store, backend):
        registry = make_registry(store, backend)
        engine = QueryEngine(registry)
        host = "www.example.co.uk"
        # The only legal (version, site) pairings, precomputed serially.
        legal = {
            index: registry.resident(index).match(host).site
            for index in range(len(store))
        }
        errors: list[BaseException] = []
        answered = [0] * self.READERS
        stop = threading.Event()
        barrier = threading.Barrier(self.READERS + 1)

        def reader(slot: int) -> None:
            try:
                barrier.wait()
                while not stop.is_set() or answered[slot] < self.LOOKUPS_PER_READER:
                    answer = engine.site(host)
                    # Version consistency: whatever snapshot answered,
                    # the site must be that exact version's site.
                    assert answer.site == legal[answer.version_index]
                    answered[slot] += 1
                    if answered[slot] >= self.LOOKUPS_PER_READER and stop.is_set():
                        break
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def swapper() -> None:
            try:
                barrier.wait()
                for swap in range(self.SWAPS):
                    registry.activate(swap % len(store))
                stop.set()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=reader, args=(slot,)) for slot in range(self.READERS)
        ]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"raised under swap load: {errors[:3]}"
        # No dropped requests: every reader finished its quota.
        assert all(count >= self.LOOKUPS_PER_READER for count in answered)
        assert registry.generation > 0

    def test_batches_are_single_version_under_swaps(self, store, backend):
        registry = make_registry(store, backend)
        engine = QueryEngine(registry)
        hosts = [f"h{i}.example.co.uk" for i in range(50)]
        errors: list[BaseException] = []
        stop = threading.Event()

        def swapper() -> None:
            for swap in range(60):
                registry.activate(swap % len(store))
            stop.set()

        def batcher() -> None:
            try:
                while not stop.is_set():
                    result = engine.batch(hosts)
                    versions = {
                        answer.version_index
                        for answer in result.answers
                        if isinstance(answer, SiteAnswer)
                    }
                    # Snapshot pinning: one batch, one version, always.
                    assert versions == {result.version_index}
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=batcher) for _ in range(3)]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"raised under swap load: {errors[:3]}"

    def test_concurrent_resident_fills_are_safe(self, store, backend):
        """Many threads demanding different versions at once (store
        checkout is not thread-safe; the registry must serialize it)."""
        registry = make_registry(store, backend, resident_capacity=2)
        errors: list[BaseException] = []

        def prober(index: int) -> None:
            try:
                for _ in range(200):
                    snapshot = registry.resident(index % len(store))
                    assert snapshot.index == index % len(store)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=prober, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"raised during resident fills: {errors[:3]}"


class TestRegistryIngest:
    """The watcher's push path: append + hot-swap with last-good fallback."""

    def delta(self, *texts: str) -> "RuleDelta":
        from repro.psl.diff import RuleDelta

        return RuleDelta(added=frozenset(Rule.parse(t) for t in texts), removed=frozenset())

    def test_ingest_appends_and_activates(self, store):
        registry = SnapshotRegistry(store)
        delta = self.delta("dev")
        expected = PublicSuffixList(store.rules_at(2) | {Rule.parse("dev")}).fingerprint
        snapshot = registry.ingest(
            datetime.date(2023, 1, 1), delta, expected_fingerprint=expected
        )
        assert registry.active is snapshot
        assert snapshot.index == 3
        assert snapshot.fingerprint == expected
        assert len(store) == 4
        assert registry.generation == 1

    def test_ingest_without_blob_uses_the_dict_path(self, store):
        registry = SnapshotRegistry(store)
        snapshot = registry.ingest(datetime.date(2023, 1, 1), self.delta("dev"))
        assert registry.active is snapshot
        assert not snapshot.packed

    def test_ingest_activate_false_keeps_the_pinned_active(self, store):
        registry = SnapshotRegistry(store)
        before = registry.active
        snapshot = registry.ingest(
            datetime.date(2023, 1, 1), self.delta("dev"), activate=False
        )
        assert registry.active is before
        assert registry.generation == 0
        assert registry.resident(3) is snapshot

    def test_fingerprint_mismatch_leaves_store_active_and_generation(self, store):
        """The last-good contract: a delta whose result is not the list
        the caller validated is refused before anything commits, and
        the previous active snapshot keeps serving."""
        registry = SnapshotRegistry(store)
        before = registry.active
        resident = registry.resident_indexes()
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            registry.ingest(
                datetime.date(2023, 1, 1),
                self.delta("dev"),
                expected_fingerprint=before.fingerprint,  # the wrong list
            )
        assert registry.active is before
        assert len(store) == 3  # nothing committed
        assert registry.generation == 0
        assert registry.resident_indexes() == resident
        assert before.psl.match("www.example.co.uk").site == "example.co.uk"
        # The store is still whole: the right ingest lands afterwards.
        assert registry.ingest(datetime.date(2023, 1, 1), self.delta("dev")).index == 3

    def test_unclean_delta_is_rejected_with_store_untouched(self, store):
        from repro.psl.diff import RuleDelta

        registry = SnapshotRegistry(store)
        bad = RuleDelta(
            added=frozenset(), removed=frozenset({Rule.parse("never-there.example")})
        )
        with pytest.raises(ValueError):
            registry.ingest(datetime.date(2023, 1, 1), bad)
        assert len(store) == 3
        assert registry.generation == 0

    def test_ingested_version_is_queryable_like_any_other(self, store):
        registry = SnapshotRegistry(store)
        engine = QueryEngine(registry)
        assert engine.site("a.foo.dev").site == "foo.dev"  # default rule
        registry.ingest(datetime.date(2023, 1, 1), self.delta("foo.dev"))
        answer = engine.site("a.foo.dev")
        assert answer.version_index == 3
        assert answer.public_suffix == "foo.dev"
        assert answer.site == "a.foo.dev"

    def test_packed_registry_accepts_live_ingest_past_the_buffer(self, store):
        """A registry built over an immutable packed history must still
        grow: versions beyond the buffer materialize via dict tries."""
        registry = make_registry(store, "packed")
        snapshot = registry.ingest(datetime.date(2023, 1, 1), self.delta("dev"))
        assert registry.active is snapshot
        assert snapshot.index == 3
        assert registry.resident(3).psl.match("app.dev").site == "app.dev"

    def test_packed_registry_never_serves_an_ingested_version_off_the_blob(self):
        """The full-history blob behind a prefix store (``psl-serve
        --watch --packed``): the registry serves off it only the
        versions its store held at construction.  An ingested v2 that
        differs from the blob's v2 answers by its delta."""
        from repro.serve.cli import prefix_store

        truth = make_store()
        prefix = prefix_store(truth, 2)
        registry = SnapshotRegistry(
            prefix, packed=PackedHistory.from_buffer(pack_history(truth)), resident_capacity=1
        )
        assert registry.active.index == 1 and registry.active.packed
        # The blob's v2 adds the Kawasaki pair; this v2 adds ``foo.dev``.
        snapshot = registry.ingest(datetime.date(2023, 1, 1), self.delta("foo.dev"))
        assert snapshot.index == 2 and not snapshot.packed
        assert registry.describe()["active"]["packed"] is False
        registry.activate(0)
        assert registry.resident(0).packed and registry.resident(1).packed
        assert 2 not in registry.resident_indexes()  # evicted: rebuilt below
        for pinned in (snapshot, registry.resident(2)):
            assert not pinned.packed
            assert pinned.match("a.foo.dev").site == "a.foo.dev"
            assert pinned.match("a.b.kawasaki.jp").site == "kawasaki.jp"

    def test_packed_history_shorter_than_the_store_is_refused(self, store):
        from repro.serve.cli import prefix_store

        short = PackedHistory.from_buffer(pack_history(prefix_store(store, 2)))
        with pytest.raises(ValueError, match="2 versions, store has 3"):
            SnapshotRegistry(store, packed=short)
