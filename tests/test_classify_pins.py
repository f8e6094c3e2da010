"""Output pins for the snapshot sweep's classify path.

A small seeded world (a multi-version store with normal, wildcard and
exception rules churning, and a hostname universe with cross-chunk and
out-of-universe request hosts) is swept and classified, and every
number the path produces is pinned by SHA-256:

* the ``run_sweep`` series (index, sites, third-party, divergence) at
  ``workers=1`` and ``workers=2``;
* each chunk's ``ChunkPartial.third_party`` / ``misclassified`` tuples
  from ``classify_chunk`` over ``snapshot_chunks`` (whose chunks carry
  zero-occurrence foreign request hosts);
* the merged ``VersionRow.to_json()`` rows of ``run_chunks``, with the
  latest list and with an unselected baseline.

Any rewrite of the chunk cut, the worker, the spill or the merge must
keep these digests.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import random

import pytest

from repro.analysis.boundaries import run_sweep
from repro.classify.columnar import snapshot_chunks
from repro.classify.engine import ClassifyEngine
from repro.classify.partials import ClassifyTask, VersionAxis, VersionDeltas, classify_chunk
from repro.history.store import VersionStore
from repro.psl.rules import Rule
from repro.webgraph.archive import Snapshot
from repro.webgraph.records import Page

HOSTS_PER_CHUNK = 64

SWEEP_SERIES = "554fe947efc580fe947d08a5594a35bb8df78d5750fc6b88762886a5c9a5bfab"
CHUNK_PARTIALS = "15c4c0cf7298ff54392a13e6483f41e7ba00eb9cbd88146645e04546c7801ee6"
ROWS_LATEST = "c023f18a9c1d80b53db4625578d69577a0173069255ccc6b217f10a252d317a2"
ROWS_UNSELECTED_BASELINE = "db24ad2df05e965743f44d11195246b86b11325d05c959b3b8abe7a581cfe344"


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def pinned_world(seed: int = 27, hosts: int = 300, versions: int = 40):
    """(store, hostnames, pairs): every choice drawn from one seeded RNG."""
    rng = random.Random(seed)
    bases = [f"{a}{b}" for a in "klmn" for b in "xyz"]
    tlds = ["com", "net", "kawasaki.jp", "example", "co.uk"]
    hostnames: list[str] = []
    for _ in range(hosts):
        name = f"{rng.choice(bases)}.{rng.choice(tlds)}"
        for _ in range(rng.randint(0, 3)):
            name = f"h{rng.randint(0, 6)}.{name}"
        hostnames.append(name)  # repeats stay: the cut keeps the first
    pool = [
        Rule.parse(text)
        for text in ["com", "net", "uk", "co.uk", "example", "*.kawasaki.jp", "!city.kawasaki.jp"]
    ]
    pool.extend(Rule.parse(f"{base}.com") for base in bases)
    pool.extend(Rule.parse(f"*.{base}.net") for base in bases[:5])
    pool.extend(Rule.parse(f"!h1.{base}.net") for base in bases[:3])
    pool.extend(Rule.parse(f"{base}.example") for base in bases[5:9])

    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2015, 1, 1)
    current = set(pool[:4])
    store.commit_rules(day, added=sorted(current, key=lambda rule: rule.text))
    while len(store) < versions:
        day += datetime.timedelta(days=7)
        absent = [rule for rule in pool if rule not in current]
        added = set(rng.sample(absent, min(len(absent), rng.randint(0, 3))))
        removable = sorted(current - added, key=lambda rule: rule.text)
        removed = set(rng.sample(removable, min(len(removable), rng.randint(0, 2))))
        if added or removed:
            store.commit_rules(day, added=added, removed=removed)
            current = (current - removed) | added

    distinct = list(dict.fromkeys(hostnames))
    outside = [f"cdn{i}.{rng.choice(bases)}.{rng.choice(tlds)}" for i in range(12)]
    pairs = [(rng.choice(distinct), rng.choice(distinct)) for _ in range(500)]
    pairs += [(rng.choice(distinct), rng.choice(outside)) for _ in range(60)]
    pairs += [(host, host) for host in distinct[:10]]
    return store, hostnames, pairs


def snapshot_of(hostnames, pairs) -> Snapshot:
    requests: dict[str, list[str]] = {}
    for page, request in pairs:
        requests.setdefault(page, []).append(request)
    return Snapshot(
        pages=[Page(host, tuple(hosts)) for host, hosts in requests.items()],
        extra_hostnames=set(hostnames),
    )


@pytest.fixture(scope="module")
def world():
    return pinned_world()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_series_pinned(world, workers):
    store, hostnames, pairs = world
    result = run_sweep(store, snapshot_of(hostnames, pairs), workers=workers)
    points = [
        (p.index, p.site_count, p.third_party_requests, p.diff_vs_latest) for p in result.points
    ]
    assert len(points) == len(store)
    assert len({point[1:] for point in points}) > 5  # the series moves
    assert digest(points) == SWEEP_SERIES


def test_chunk_partials_pinned(world, tmp_path):
    store, hostnames, pairs = world
    chunks = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)
    assert len(chunks) > 3
    assert all(0 in chunk.occurrences for chunk in chunks)  # every chunk borrows hosts
    slots = tuple(range(len(store)))
    axis = VersionAxis.build(VersionDeltas.from_store(store, slots, slots[-1]))
    partials = [
        classify_chunk(ClassifyTask(ref=chunk, axis=axis, spill_dir=str(tmp_path)))
        for chunk in chunks
    ]
    payload = [
        [p.index, p.hostnames, p.total_pairs, list(p.third_party), list(p.misclassified)]
        for p in partials
    ]
    assert digest(payload) == CHUNK_PARTIALS


@pytest.mark.parametrize(
    "selected, baseline, expected",
    [
        (None, -1, ROWS_LATEST),
        (range(0, 40, 3), 38, ROWS_UNSELECTED_BASELINE),
    ],
)
def test_merged_rows_pinned(world, tmp_path, selected, baseline, expected):
    store, hostnames, pairs = world
    versions = range(len(store)) if selected is None else selected
    result = ClassifyEngine(
        store, version_indexes=versions, baseline=baseline, run_dir=str(tmp_path)
    ).run_chunks(snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK))
    assert digest([row.to_json() for row in result.rows]) == expected
