"""The Figure 5-7 sweep vs. per-version one-shot oracles.

:func:`~repro.analysis.boundaries.run_sweep` runs the classify engine
over a :class:`VersionStore` (dict-trie delta replay) and a snapshot
cut into columnar chunks.  Its whole value proposition is that this
delta-driven, chunked, possibly-parallel sweep is *indistinguishable*
from rebuilding the world per version.  These tests hold it to that:

* property tests replay randomized delta sequences (normal, wildcard,
  and exception rules) over randomized hostname universes and compare
  every per-version number (sites, divergence from the latest list,
  third-party requests) against ``group_sites`` and the streaming
  third-party count on a fresh checkout — at the default chunking and
  at one host per chunk, where every cross-host request pair carries
  an occurrence-0 foreign host;
* a deterministic multi-chunk run asserts ``workers=2`` output is
  bit-identical to ``workers=1``;
* unit tests pin the snapshot chunk planner and validation edges.
"""

import datetime
import random
import string
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.boundaries import SweepResult, run_sweep
from repro.classify import SNAPSHOT_CHUNK_HOSTS, ClassifyEngine, snapshot_chunks
from repro.history.store import VersionStore
from repro.net.hostname import is_ip_literal
from repro.psl.diff import RuleDelta
from repro.psl.rules import Rule
from repro.webgraph.archive import Snapshot
from repro.webgraph.records import Page
from repro.webgraph.sites import group_sites
from repro.webgraph.stream import count_third_party_streaming

# -- strategies (the idiom of test_properties.py) -----------------------------

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6)


@st.composite
def rule_text(draw):
    labels = draw(st.lists(label, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["normal", "normal", "wildcard", "exception"]))
    name = ".".join(labels)
    if kind == "wildcard":
        return f"*.{name}"
    if kind == "exception" and len(labels) >= 2:
        return f"!{name}"
    return name


rule_sets = st.lists(rule_text(), min_size=0, max_size=12).map(
    lambda texts: [Rule.parse(t) for t in texts]
)

# All-digit draws can land on dotted quads ("0.0.0.0"), which the
# streaming ingest gate rejects as IP literals; these tests compare the
# engine against per-version oracles over *hostnames*, so keep the
# universe out of IP-literal space (ingest policy has its own tests).
hostnames_strategy = st.lists(
    st.lists(label, min_size=1, max_size=4)
    .map(".".join)
    .filter(lambda name: not is_ip_literal(name)),
    min_size=1,
    max_size=25,
    unique=True,
)


def store_from_steps(rule_steps):
    """A VersionStore whose versions walk through the target rule sets."""
    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2020, 1, 1)
    current: set[Rule] = set()
    for step in rule_steps:
        target = set(step)
        delta = RuleDelta(
            added=frozenset(target - current), removed=frozenset(current - target)
        )
        if delta:
            store.commit(day, delta)
            day += datetime.timedelta(days=1)
            current = target
    if len(store) == 0:  # every step drew the same (possibly empty) set
        store.commit_rules(day, added=[Rule.parse("placeholder")])
    return store


def pairs_from(hostnames):
    """Deterministic request pairs covering same-site and cross-site."""
    rotated = hostnames[1:] + hostnames[:1]
    pairs = list(zip(hostnames, rotated))
    pairs.extend((host, host) for host in hostnames[:5])
    return pairs


def snapshot_of(hostnames, pairs=()):
    """A snapshot whose universes are exactly ``hostnames`` and ``pairs``."""
    requests: dict[str, list[str]] = {}
    for page, request in pairs:
        requests.setdefault(page, []).append(request)
    return Snapshot(
        pages=[Page(host, tuple(hosts)) for host, hosts in requests.items()],
        extra_hostnames=set(hostnames),
    )


def series(result):
    """Per-version (sites, third-party, divergence) of a sweep or a
    classify run."""
    if isinstance(result, SweepResult):
        return [
            (p.site_count, p.third_party_requests, p.diff_vs_latest) for p in result.points
        ]
    return [
        (r.sites.sites, r.third_party.third_party, r.misclassified_hostnames)
        for r in result.rows
    ]


def sweep_in_chunks(store, hostnames, pairs, hosts_per_chunk, run_dir, **options):
    """The engine behind run_sweep at an explicit snapshot chunking."""
    return ClassifyEngine(
        store, version_indexes=range(len(store)), run_dir=run_dir, **options
    ).run_chunks(snapshot_chunks(hostnames, pairs, hosts_per_chunk))


# -- property tests: sweep vs. rebuild-per-version ----------------------------


class TestEngineMatchesOracles:
    @settings(max_examples=40, deadline=None)
    @given(hostnames_strategy, st.lists(rule_sets, min_size=1, max_size=5))
    def test_serial_sweep_equals_rebuild_per_version(self, hostnames, rule_steps):
        store = store_from_steps(rule_steps)
        pairs = pairs_from(hostnames)
        sweep = run_sweep(store, snapshot_of(hostnames, pairs))

        assignments = [
            group_sites(store.checkout(index), hostnames)
            for index in range(len(store))
        ]
        latest = assignments[-1]
        for index, point in enumerate(sweep.points):
            assignment = assignments[index]
            assert point.site_count == len(set(assignment.values()))
            assert point.diff_vs_latest == sum(
                1 for host in hostnames if assignment[host] != latest[host]
            )
            third, total = count_third_party_streaming(store.checkout(index), pairs)
            assert total == len(pairs) == sweep.total_requests
            assert point.third_party_requests == third

    @settings(max_examples=25, deadline=None)
    @given(hostnames_strategy, st.lists(rule_sets, min_size=2, max_size=4))
    def test_tiny_chunks_change_nothing(self, hostnames, rule_steps):
        store = store_from_steps(rule_steps)
        pairs = pairs_from(hostnames)
        default = run_sweep(store, snapshot_of(hostnames, pairs))
        with tempfile.TemporaryDirectory() as run_dir:
            # One host per chunk: every cross-host pair's request host
            # is foreign to its chunk and rides along at occurrence 0.
            shredded = sweep_in_chunks(store, hostnames, pairs, 1, run_dir)
        assert series(shredded) == series(default)
        # The merge tracks the largest site through the deltas, which
        # must agree with a full recount at every version.
        for index, row in enumerate(shredded.rows):
            sizes = Counter(group_sites(store.checkout(index), hostnames).values())
            assert row.sites.largest_site == max(sizes.values())


# -- parallel vs. serial ------------------------------------------------------


def _random_world(seed=20230701, hosts=150, versions=30):
    """A deterministic multi-version store plus a hostname universe."""
    rng = random.Random(seed)
    bases = [f"{a}{b}" for a in "pqrs" for b in "tuvw"]
    tlds = ["com", "net", "kawasaki.jp", "example"]
    hostnames = []
    for index in range(hosts):
        depth = rng.randint(0, 2)
        name = f"{rng.choice(bases)}.{rng.choice(tlds)}"
        for _ in range(depth):
            name = f"h{rng.randint(0, 9)}.{name}"
        if name not in hostnames:
            hostnames.append(name)
    pool = [Rule.parse(t) for t in ["com", "net", "example", "*.kawasaki.jp",
                                    "!city.kawasaki.jp"]]
    pool.extend(Rule.parse(f"{base}.com") for base in bases)
    pool.extend(Rule.parse(f"*.{base}.net") for base in bases[:6])

    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2015, 1, 1)
    current: set[Rule] = set(pool[:3])
    store.commit_rules(day, added=sorted(current, key=lambda r: r.text))
    for _ in range(versions - 1):
        day += datetime.timedelta(days=7)
        absent = [rule for rule in pool if rule not in current]
        added = set(rng.sample(absent, min(len(absent), rng.randint(0, 3))))
        removable = sorted(current - added, key=lambda r: r.text)
        removed = set(rng.sample(removable, min(len(removable), rng.randint(0, 2))))
        if not added and not removed:
            added = {absent[0]} if absent else set()
        if added or removed:
            store.commit_rules(day, added=added, removed=removed)
        current = (current - removed) | added
    return store, hostnames


class TestParallelIdentity:
    def test_two_workers_bit_identical_to_serial(self, tmp_path):
        store, hostnames = _random_world()
        pairs = pairs_from(hostnames)
        serial = sweep_in_chunks(store, hostnames, pairs, 16, str(tmp_path / "serial"))
        parallel = sweep_in_chunks(
            store, hostnames, pairs, 16, str(tmp_path / "parallel"), workers=2
        )
        assert serial.chunks > 2
        assert series(parallel) == series(serial)
        snapshot = snapshot_of(hostnames, pairs)
        assert run_sweep(store, snapshot, workers=2) == run_sweep(store, snapshot)


# -- entry points and edges ---------------------------------------------------


class TestEngineApi:
    def test_narrow_apis_match_combined_sweep(self):
        # Requests only feed Figure 6: a hosts-only snapshot of the same
        # universe has the combined sweep's site and divergence series.
        store, hostnames = _random_world(hosts=60, versions=10)
        combined = run_sweep(store, snapshot_of(hostnames, pairs_from(hostnames)))
        hosts_only = run_sweep(store, snapshot_of(hostnames))
        for full, narrow in zip(combined.points, hosts_only.points):
            assert narrow.site_count == full.site_count
            assert narrow.diff_vs_latest == full.diff_vs_latest
            assert narrow.third_party_requests == 0

    def test_unrequested_series_are_zero(self):
        store, hostnames = _random_world(hosts=20, versions=5)
        sweep = run_sweep(store, snapshot_of(hostnames))
        assert len(sweep.points) == len(store)
        assert [point.third_party_requests for point in sweep.points] == [0] * len(store)
        assert sweep.total_requests == 0

    def test_divergence_against_arbitrary_baseline(self, tmp_path):
        store, hostnames = _random_world(hosts=30, versions=6)
        result = ClassifyEngine(
            store, version_indexes=range(len(store)), baseline=0, run_dir=str(tmp_path)
        ).run_chunks(snapshot_chunks(hostnames, ()))
        assert result.rows[0].misclassified_hostnames == 0  # v0 never diverges from itself

    def test_largest_site_is_recounted_when_it_shrinks(self, tmp_path):
        store = VersionStore()
        store.commit_rules(datetime.date(2020, 1, 1), added=[Rule.parse("com")])
        store.commit_rules(datetime.date(2020, 2, 1), added=[Rule.parse("foo.com")])
        hostnames = ["a.foo.com", "b.foo.com", "c.foo.com", "a.bar.com", "b.bar.com"]
        result = sweep_in_chunks(store, hostnames, (), 2, str(tmp_path))
        # foo.com (3 hosts) splits into three sites; bar.com (2) is next.
        assert [row.sites.largest_site for row in result.rows] == [3, 2]
        assert [row.sites.sites for row in result.rows] == [2, 4]

    def test_duplicate_hostnames_are_counted_once(self, tmp_path):
        store, hostnames = _random_world(hosts=20, versions=4)
        chunks = snapshot_chunks(hostnames + hostnames, ())
        assert sum(chunk.hostnames for chunk in chunks) == len(hostnames)
        result = sweep_in_chunks(store, hostnames + hostnames, (), 7, str(tmp_path))
        assert result.rows[-1].sites.hostnames == len(hostnames)

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            run_sweep(VersionStore(), snapshot_of(["a.com"]))

    def test_empty_sweep_short_circuits_even_with_many_workers(self):
        # The pool-construction edge: min(workers, 0 tasks) must never
        # reach ProcessPoolExecutor(max_workers=0).
        store, _ = _random_world(hosts=5, versions=3)
        sweep = run_sweep(store, Snapshot(), workers=4)
        assert [point.site_count for point in sweep.points] == [0] * len(store)
        assert sweep.total_hostnames == 0 and sweep.total_requests == 0

    def test_rejects_bad_workers_and_chunks(self):
        store, hostnames = _random_world(hosts=5, versions=3)
        with pytest.raises(ValueError):
            run_sweep(store, snapshot_of(hostnames), workers=0)
        with pytest.raises(ValueError):
            snapshot_chunks(hostnames, (), 0)


class TestChunking:
    def test_chunks_partition_the_universe(self):
        hostnames = [f"h{i}.example.com" for i in range(10)]
        chunks = snapshot_chunks(hostnames, (), 3)
        assert [chunk.index for chunk in chunks] == [0, 1, 2, 3]
        assert [chunk.task_id for chunk in chunks][:2] == ["classify-0", "classify-1"]
        assert [host for chunk in chunks for host in chunk.hosts] == hostnames
        assert all(set(chunk.occurrences) == {1} for chunk in chunks)

    def test_pair_chunks_partition_the_stream(self):
        hostnames = [f"a{i}.com" for i in range(7)] + [f"b{i}.net" for i in range(7)]
        pairs = [(f"a{i}.com", f"b{i}.net") for i in range(7)]
        chunks = snapshot_chunks(hostnames, pairs, 4)
        # Each pair rides with its page host's owner chunk ...
        assert [len(chunk.pages) for chunk in chunks] == [4, 3, 0, 0]
        replayed = [
            (chunk.hosts[page], chunk.hosts[request])
            for chunk in chunks
            for page, request in zip(chunk.pages, chunk.requests)
        ]
        assert replayed == pairs
        # ... which borrows the foreign request hosts at occurrence 0.
        first = chunks[0]
        assert first.hosts[4:] == ("b0.net", "b1.net", "b2.net", "b3.net")
        assert list(first.occurrences) == [1] * 4 + [0] * 4
        assert sum(chunk.hostnames for chunk in chunks) == len(hostnames)

    def test_default_chunk_size_is_sane(self):
        # Big enough to amortize per-chunk spill, checkpoint and merge
        # overhead, small enough to bound a chunk's memory.
        assert 1024 <= SNAPSHOT_CHUNK_HOSTS <= 16_384

    def test_page_hosts_must_be_in_the_universe(self):
        with pytest.raises(ValueError):
            snapshot_chunks(["a.com"], [("b.com", "a.com")])
