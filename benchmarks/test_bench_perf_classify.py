"""PERF — the bulk classify engine's throughput/memory/resume gates.

The acceptance bars for ``repro.classify``:

* **throughput** — the single-worker engine sustains at least the
  recorded floor (records x versions per wall second) on a 1M-record
  synthetic log classified under 11 evenly spaced versions of the world
  history, read from a ``--cache-dir`` pipeline store;
* **memory** — peak RSS of the whole classify process tree stays under
  a fixed cap: the engine streams chunks and merges spills version-at-
  a-time, so memory must not scale with records x versions;
* **resume** — a warm re-run over the same run directory (all chunks
  checkpointed) finishes at least 3x faster than the cold run, which
  is what makes kill/resume economical at HTTP-Archive scale.

Each probe is a fresh ``psl-classify`` subprocess so the RSS number is
honest (no inherited fixture memory).  ``BENCH_CLASSIFY_SMOKE=1``
shrinks the log so ``make check`` can run the same contracts in
seconds; the full gate is ``make bench-classify``.  Numbers are
persisted to ``benchmarks/artifacts/perf_classify.txt`` and summarized
in EXPERIMENTS.md.

``test_bench_classify_record_layers`` (no gate) splits one in-process
job of the repository benchmark's classify-bulk shape (262,144 records,
101 versions) into µs per record for generation, ingest, walk + flip,
and spill + merge, written to
``benchmarks/artifacts/perf_classify_layers.txt``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

import repro.classify.columnar as columnar
import repro.classify.engine as engine_module
import repro.classify.partials as partials
from benchmarks.conftest import BENCH_SEED, save_artifact
from repro.analysis.context import world_pipeline
from repro.classify import ClassifyEngine, select_version_indexes
from repro.classify.columnar import SyntheticChunkRef
from repro.classify.partials import classify_chunk
from repro.psl.packed import pack_history
from repro.webgraph.requestlog import RequestLogConfig, iter_block

pytestmark = pytest.mark.bench

SMOKE = os.environ.get("BENCH_CLASSIFY_SMOKE") == "1"

RECORDS = 131_072 if SMOKE else 1_048_576
#: Floor in records/s; measured ~143k on the 1-core reference host, so
#: these hold >2x headroom for slower machines and noisy neighbours.
THROUGHPUT_FLOOR = 30_000.0 if SMOKE else 60_000.0
#: Peak RSS cap in MiB; measured ~120 MiB (the engine is O(chunk) +
#: O(one version's site table), never O(records x versions)).
PEAK_RSS_CAP_MB = 512.0
RESUME_SPEEDUP = 3.0


#: Versions each probe classifies under: the size of the cross-section
#: (every 120th version plus the latest) earlier probes read.
VERSIONS = 11


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A pipeline store holding the world history, as ``--cache-dir`` reads it."""
    path = str(tmp_path_factory.mktemp("cache"))
    world_pipeline(BENCH_SEED, path).build("history")
    return path


@pytest.fixture(scope="module")
def history_store(cache_dir):
    return world_pipeline(BENCH_SEED, cache_dir).build("history")


def run_classify(cache_dir: str, run_dir: str, stats_path: str, *extra: str) -> float:
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
    )
    command = [
        sys.executable, "-m", "repro.classify.cli",
        "--seed", str(BENCH_SEED),
        "--cache-dir", cache_dir,
        "--records", str(RECORDS),
        "--versions", str(VERSIONS),
        "--run-dir", run_dir,
        "--json", stats_path,
        "--quiet",
        *extra,
    ]
    begin = time.perf_counter()
    completed = subprocess.run(command, env=env)
    wall = time.perf_counter() - begin
    assert completed.returncode == 0, f"psl-classify exited {completed.returncode}"
    return wall


def test_bench_classify_throughput_memory_and_resume(cache_dir, tmp_path):
    run_dir = str(tmp_path / "run")
    stats_path = str(tmp_path / "stats.json")

    cold_wall = run_classify(cache_dir, run_dir, stats_path)
    with open(stats_path, encoding="utf-8") as handle:
        cold = json.load(handle)

    warm_wall = run_classify(cache_dir, run_dir, stats_path, "--resume")
    with open(stats_path, encoding="utf-8") as handle:
        warm = json.load(handle)

    assert warm["resumed_chunks"] == cold["chunks"]  # the warm run reused everything
    assert warm["rows"] == cold["rows"]  # and reproduced the cold rows exactly

    save_artifact(
        "perf_classify.txt",
        "\n".join(
            [
                f"smoke               {SMOKE}",
                f"records             {cold['records']:,}",
                f"versions            {len(cold['rows'])}",
                f"chunks              {cold['chunks']}",
                f"cold wall           {cold_wall:8.3f} s",
                f"cold records/s      {cold['records_per_second']:12,.0f}",
                f"cold peak rss       {cold['peak_rss_mb']:8.1f} MiB",
                f"warm (resume) wall  {warm_wall:8.3f} s",
                f"resume speedup      {cold_wall / warm_wall:8.1f} x",
            ]
        ),
    )

    assert cold["records_per_second"] >= THROUGHPUT_FLOOR, (
        f"classify throughput {cold['records_per_second']:,.0f} records/s "
        f"below the {THROUGHPUT_FLOOR:,.0f} floor"
    )
    assert cold["peak_rss_mb"] <= PEAK_RSS_CAP_MB, (
        f"classify peak RSS {cold['peak_rss_mb']:.0f} MiB exceeds the "
        f"{PEAK_RSS_CAP_MB:.0f} MiB cap"
    )
    if not SMOKE:
        # Interpreter start-up dominates the seconds-long smoke run, so
        # the wall-clock speedup claim is only meaningful at full size.
        assert cold_wall / warm_wall >= RESUME_SPEEDUP, (
            f"warm resume only {cold_wall / warm_wall:.1f}x faster than cold "
            f"({warm_wall:.2f}s vs {cold_wall:.2f}s)"
        )


#: The repository benchmark's classify-bulk job: one chunk of four
#: generation blocks under 101 evenly spaced versions.
LAYER_RECORDS = 4 * 65536
LAYER_VERSIONS = 101
LAYER_ROUNDS = 3 if SMOKE else 7


class _Stopwatch:
    """CPU seconds spent inside the wrapped calls, per layer."""

    def __init__(self) -> None:
        self.spent: dict[str, float] = {}

    def wrap(self, name, function):
        def timed(*args, **kwargs):
            started = time.process_time()
            try:
                return function(*args, **kwargs)
            finally:
                self.spent[name] = self.spent.get(name, 0.0) + time.process_time() - started

        return timed


def test_bench_classify_record_layers(history_store, tmp_path, monkeypatch):
    """CPU µs per record of one classify-bulk-shaped job, layer by layer.

    Every layer is timed inside the same job, so the four add up to it:

    * generation — each block's ``iter_block`` records, drawn into a
      list before ingest consumes them;
    * ingest — ``SyntheticChunkRef.load`` minus generation;
    * walk + flip — ``classify_chunk`` minus the load and its spill
      writes;
    * spill + merge — the rest of the job: spill writes, the runtime's
      checkpointing, spill reads and the merge.
    """
    indexes = select_version_indexes(len(history_store), LAYER_VERSIONS)
    path = tmp_path / "packed.bin"
    path.write_bytes(pack_history(history_store, indexes=list(indexes)))
    engine = ClassifyEngine(
        str(path), version_indexes=range(len(indexes)), workers=1, run_dir=str(tmp_path / "run")
    )
    config = RequestLogConfig(seed=BENCH_SEED, records=LAYER_RECORDS)
    first = engine.run_synthetic(config)  # builds the version axis, untimed

    watch = _Stopwatch()
    monkeypatch.setattr(
        columnar, "iter_block", watch.wrap("generation", lambda *args: iter(list(iter_block(*args))))
    )
    monkeypatch.setattr(SyntheticChunkRef, "load", watch.wrap("load", SyntheticChunkRef.load))
    monkeypatch.setattr(engine_module, "classify_chunk", watch.wrap("classify", classify_chunk))
    writer = partials.SpillWriter
    monkeypatch.setattr(writer, "add", watch.wrap("spill", writer.add))
    monkeypatch.setattr(writer, "finish", watch.wrap("spill", writer.finish))

    samples: dict[str, list[float]] = {
        "generation": [], "ingest": [], "walk + flip": [], "spill + merge": [], "job": []
    }
    per_record = 1e6 / LAYER_RECORDS
    for _ in range(LAYER_ROUNDS):
        watch.spent.clear()
        started = time.process_time()
        result = engine.run_synthetic(config)
        job = time.process_time() - started
        assert result.rows == first.rows
        spent = watch.spent
        layers = {
            "generation": spent["generation"],
            "ingest": spent["load"] - spent["generation"],
            "walk + flip": spent["classify"] - spent["load"] - spent["spill"],
            "spill + merge": job - spent["classify"] + spent["spill"],
            "job": job,
        }
        for name, seconds in layers.items():
            samples[name].append(seconds * per_record)

    lines = [
        f"classify-bulk job shape: {LAYER_RECORDS:,} records, {len(engine.version_indexes)} "
        f"versions, {first.rows[0].sites.hostnames:,} valid endpoints; CPU µs/record, "
        f"median of {LAYER_ROUNDS} jobs (every job)",
        *(
            f"{name:14s} {statistics.median(values):6.3f}   "
            + " ".join(f"{value:.3f}" for value in values)
            for name, values in samples.items()
        ),
    ]
    print()
    for line in lines:
        print("  " + line)
    save_artifact("perf_classify_layers.txt", "\n".join(lines))
