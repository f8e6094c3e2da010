"""PERF — the resilient runtime wrapper on a fault-free sweep.

The runtime layer (retries, quarantine, checkpoint hooks, spill
validation) must be cheap when nothing fails: the gate asserts the
classify engine's serial sweep over a version store costs < 10% over
a plain serial loop of its worker (``classify_chunk``) over the same
tasks, followed by the same merge, on a >= 200-version segment.

Timings are best-of-3 to shave scheduler noise; both strategies run
the identical task list through the identical merge, so the compared
work differs only by the runtime wrapper itself.
"""

import datetime
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.classify import (
    ClassifyEngine,
    ClassifyTask,
    VersionAxis,
    VersionDeltas,
    classify_chunk,
    snapshot_chunks,
)
from repro.history.store import VersionStore

pytestmark = pytest.mark.bench

SEGMENT_VERSIONS = 220
UNIVERSE_SIZE = 3000
ROUNDS = 3
MAX_OVERHEAD = 0.10


@pytest.fixture(scope="module")
def runtime_world(tables_world):
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


def _best_of(rounds, run):
    best = float("inf")
    result = None
    for _ in range(rounds):
        begin = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - begin)
    return best, result


def test_bench_runtime_wrapper_overhead(runtime_world, tmp_path):
    store, hostnames = runtime_world
    versions = tuple(range(len(store)))
    chunks = snapshot_chunks(hostnames, ())

    def engine(run_dir):
        return ClassifyEngine(store, version_indexes=versions, run_dir=run_dir)

    merger = engine(str(tmp_path / "merge"))

    def raw_loop():
        # The worker over the same tasks: no executor, no checkpoints,
        # no spill validation — then the engine's own merge.  The axis
        # is built once per round and shared by every task, as the
        # engine builds it once per run.
        axis = VersionAxis.build(VersionDeltas.from_store(store, versions, versions[-1]))
        spill_dir = str(tmp_path / "raw")
        partials = [
            classify_chunk(ClassifyTask(ref=chunk, axis=axis, spill_dir=spill_dir))
            for chunk in chunks
        ]
        return merger._merge(partials)

    raw_seconds, raw_rows = _best_of(ROUNDS, raw_loop)
    wrapped_seconds, wrapped_rows = _best_of(
        ROUNDS, lambda: engine(str(tmp_path / "run")).run_chunks(chunks).rows
    )

    assert wrapped_rows == raw_rows  # same answer first
    overhead = wrapped_seconds / raw_seconds - 1.0

    save_artifact(
        "perf_runtime.txt",
        "\n".join(
            [
                f"date                 {datetime.date.today().isoformat()}",
                f"versions             {len(store)}",
                f"hostnames            {len(hostnames)}",
                f"plain worker loop    {raw_seconds:8.3f} s",
                f"resilient runtime    {wrapped_seconds:8.3f} s ({overhead:+6.1%})",
            ]
        ),
    )
    assert overhead < MAX_OVERHEAD, (
        f"runtime wrapper costs {overhead:.1%} on a fault-free sweep "
        f"({wrapped_seconds:.3f}s vs {raw_seconds:.3f}s plain loop)"
    )
