"""PERF — the delta-driven Figure 5-7 sweep vs. rebuild-per-version.

The acceptance bar for :func:`~repro.analysis.boundaries.run_sweep`
(the classify engine over a version store):

* the delta-driven sweep is >= 5x faster than rebuilding a trie and
  regrouping the universe at every version, measured over a >= 200
  version history segment;
* parallel (``workers=2``) output is bit-identical to serial, and on a
  multi-core host the parallel run is also faster (the identity is
  asserted everywhere; the speed claim only where the hardware can
  deliver it).

Timing uses ``time.perf_counter`` directly rather than the
``benchmark`` fixture because the assertions compare *two* strategies
inside one test; the measured numbers are persisted to
``benchmarks/artifacts/perf_sweep.txt`` and summarized in
EXPERIMENTS.md.
"""

import datetime
import os
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.analysis.boundaries import run_sweep
from repro.history.store import VersionStore
from repro.psl.list import PublicSuffixList
from repro.webgraph.archive import Snapshot
from repro.webgraph.sites import group_sites

pytestmark = pytest.mark.bench

SEGMENT_VERSIONS = 220
UNIVERSE_SIZE = 3000


@pytest.fixture(scope="module")
def sweep_world(tables_world):
    """A >= 200-version sub-history plus a fixed hostname sample."""
    store = tables_world.store
    start = len(store) // 3
    segment = VersionStore(snapshot_interval=64)
    initial = store.rules_at(start)
    segment.commit_rules(store.versions[start].date, added=sorted(initial, key=lambda r: r.text))
    for version in store.versions[start + 1 : start + SEGMENT_VERSIONS]:
        segment.commit(version.date, version.delta)
    hostnames = tables_world.snapshot.hostnames[:UNIVERSE_SIZE]
    assert len(segment) >= 200
    return segment, hostnames


def _site_counts(store, hostnames, workers=1):
    sweep = run_sweep(store, Snapshot(extra_hostnames=set(hostnames)), workers=workers)
    return tuple(point.site_count for point in sweep.points)


def _rebuild_per_version(store, hostnames):
    """The old strategy: fresh trie + full regroup at every version."""
    counts = []
    for version in store.versions:
        psl = PublicSuffixList(store.rules_at(version.index))
        counts.append(len(set(group_sites(psl, hostnames).values())))
    return tuple(counts)


def test_bench_delta_sweep_vs_rebuild(sweep_world):
    store, hostnames = sweep_world

    begin = time.perf_counter()
    engine_counts = _site_counts(store, hostnames)
    engine_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    rebuild_counts = _rebuild_per_version(store, hostnames)
    rebuild_seconds = time.perf_counter() - begin

    assert engine_counts == rebuild_counts  # same answer first
    speedup = rebuild_seconds / engine_seconds
    per_version_ms = engine_seconds / len(store) * 1000.0

    save_artifact(
        "perf_sweep.txt",
        "\n".join(
            [
                f"date                {datetime.date.today().isoformat()}",
                f"versions            {len(store)}",
                f"hostnames           {len(hostnames)}",
                f"rebuild-per-version {rebuild_seconds:8.3f} s",
                f"delta-driven sweep  {engine_seconds:8.3f} s",
                f"speedup             {speedup:8.1f} x",
                f"amortized per-version cost {per_version_ms:8.3f} ms",
            ]
        ),
    )
    assert speedup >= 5.0, (
        f"delta-driven sweep only {speedup:.1f}x faster "
        f"({engine_seconds:.3f}s vs {rebuild_seconds:.3f}s)"
    )


def test_bench_parallel_scaling(sweep_world):
    store, hostnames = sweep_world

    begin = time.perf_counter()
    serial = _site_counts(store, hostnames, workers=1)
    serial_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    parallel = _site_counts(store, hostnames, workers=2)
    parallel_seconds = time.perf_counter() - begin

    assert parallel == serial  # bit-identical on any hardware

    save_artifact(
        "perf_sweep_parallel.txt",
        "\n".join(
            [
                f"cpu_count {os.cpu_count()}",
                f"workers=1 {serial_seconds:8.3f} s",
                f"workers=2 {parallel_seconds:8.3f} s",
            ]
        ),
    )
    if (os.cpu_count() or 1) > 1:
        # Only a multi-core host can make fan-out pay for fork+pickle.
        assert parallel_seconds < serial_seconds, (
            f"workers=2 ({parallel_seconds:.3f}s) did not beat "
            f"workers=1 ({serial_seconds:.3f}s) on {os.cpu_count()} cores"
        )
