"""The two batch workloads: ``classify-bulk`` and ``sweep-history``.

Each runs in a fresh child process.  The child loads its inputs from
the world cache, prints ``READY`` (the orchestrator times set-up from
spawn to that line), runs the job, checks every answer against an
oracle outside the timed region, and returns its result dict.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import time
from typing import Any, Callable

from benchmarks.e2e import world
from benchmarks.e2e.layers import batch_layers, install_batch
from benchmarks.e2e.trace import Tracer

#: Versions the classify job steps through (ROADMAP's 101-version chain).
CLASSIFY_VERSIONS = 101
#: Records per classify job: four generation blocks.
JOB_RECORDS = 4 * 65536
#: Share of the figures world each sweep repetition replays.
SWEEP_SAMPLE = 0.125

# Digests of the default-seed answers, keyed "seed:size".  A later
# change that moves any row or series fails the run as incorrect.
DIGESTS = {
    "classify-bulk": {
        "20230701:262144": "0dce932fba3d59ecba3f37bc7e8fefc54fbe27f7cbed8ce6b5e19d640b356909",
    },
    "sweep-history": {
        "20230701:0.125": "240040f7506c1515a1e8a8e0d9db33ae5ac99c61bda9988b4a727ffe5c3b1c05",
    },
}


def classify_jobs(seconds: float) -> int:
    """Timed classify jobs per run, after the untimed first: 6 at 25 s, about 2.6 s each."""
    return max(3, round(seconds / 4))


def sweep_repetitions(seconds: float) -> int:
    """Sweeps per run: 7 at 25 s, about 3 s each."""
    return max(3, round(seconds / 3.5))


def digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _check_digest(workload: str, key: str, value: str, failures: list[str]) -> None:
    expected = DIGESTS[workload].get(key)
    if expected is not None and expected != value:
        failures.append(f"{workload} digest {value[:12]} != committed {expected[:12]} for {key}")


# -- classify-bulk --------------------------------------------------------------


def classify_setup() -> tuple[Any, str]:
    from repro.classify import ClassifyEngine, select_version_indexes
    from repro.psl.packed import PackedHistory

    path = world.packed_path()
    versions = select_version_indexes(len(PackedHistory.load(path)), CLASSIFY_VERSIONS)
    run_dir = world.TRACE_DIR / f"classify-run-{os.getpid()}"
    engine = ClassifyEngine(path, version_indexes=versions, workers=1, run_dir=str(run_dir))
    return engine, str(run_dir)


def classify_cleanup(inputs: tuple[Any, str]) -> None:
    shutil.rmtree(inputs[1], ignore_errors=True)


def classify_run(inputs: tuple[Any, str], *, seed: int, seconds: float,
                 tracer: Tracer | None) -> dict:
    """The same job ``1 + classify_jobs(seconds)`` times; the first is not timed.

    The first job in a process builds the per-process version plan and
    opens the packed history; later jobs reuse both, as the chunks of a
    long bulk run do, so the timed jobs measure the steady rate.
    """
    from repro.webgraph.requestlog import RequestLogConfig

    engine, _ = inputs
    config = RequestLogConfig(seed=seed, records=JOB_RECORDS)
    walls: list[float] = []
    results = []
    for _ in range(1 + classify_jobs(seconds)):
        started = time.perf_counter()
        results.append(engine.run_synthetic(config))
        walls.append(time.perf_counter() - started)

    failures: list[str] = []
    rows = [[row.to_json() for row in result.rows] for result in results]
    if any(job != rows[0] for job in rows[1:]):
        failures.append("classify jobs disagree")
    result = results[0]
    baseline = result.row_for(result.baseline_index)
    if baseline.misclassified_hostnames != 0:
        failures.append(f"baseline row misclassifies {baseline.misclassified_hostnames} hostnames")
    for row in result.rows:
        if row.sites.hostnames + row.sites.skipped != 2 * JOB_RECORDS:
            failures.append(f"v{row.version_index}: hostnames + skipped != 2 x records")
            break
    failures += [job.failure.summary() for job in results if job.degraded]
    value = digest(rows[0])
    _check_digest("classify-bulk", f"{seed}:{JOB_RECORDS}", value, failures)
    timed = walls[1:]
    out = {
        "attempted": JOB_RECORDS * len(results),
        "failed": sum(JOB_RECORDS - job.records for job in results if job.degraded),
        "failures": failures,
        "wall_s": sum(walls),
        "digest": value,
        "samples_ms": [wall * 1e3 for wall in timed],
        "throughput_per_s": JOB_RECORDS / statistics.fmean(timed),
        "size": {"records_per_job": JOB_RECORDS, "jobs": len(results), "first_job_s": walls[0],
                 "versions": len(result.rows)},
    }
    if tracer is not None:
        tracer.finish()
        out["layers"] = batch_layers(tracer, "classify-bulk", runs=len(results), wall_s=sum(walls),
                                     versions=len(result.rows))
    return out


# -- sweep-history ------------------------------------------------------------


def sweep_setup() -> Any:
    return world.load_inputs()


def sample_snapshot(snapshot: Any, seed: int) -> Any:
    """A seeded ``SWEEP_SAMPLE`` share of the snapshot's pages and hosts."""
    from repro.webgraph.archive import Snapshot

    rng = random.Random(f"e2e-sweep:{seed}")
    pages = rng.sample(snapshot.pages, round(len(snapshot.pages) * SWEEP_SAMPLE))
    extras = sorted(snapshot.extra_hostnames)
    hosts = set(rng.sample(extras, round(len(extras) * SWEEP_SAMPLE)))
    return Snapshot(pages=pages, extra_hostnames=hosts)


def sweep_run(inputs: Any, *, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    from repro.analysis.boundaries import run_sweep

    store, snapshot = inputs
    sample = sample_snapshot(snapshot, seed)
    reps = sweep_repetitions(seconds)
    walls: list[float] = []
    series: list[list] = []
    failures: list[str] = []
    lost = 0
    for _ in range(reps):
        job = tracer.open("job") if tracer is not None else None
        started = time.perf_counter()
        result = run_sweep(store, sample)
        walls.append(time.perf_counter() - started)
        if job is not None:
            tracer.close(job)
        series.append([
            (p.index, p.site_count, p.third_party_requests, p.diff_vs_latest) for p in result.points
        ])
        report = result.failure_report
        if report is not None and report.degraded:
            failures.append(report.summary())
            lost += len(result.points)

    if any(s != series[0] for s in series[1:]):
        failures.append("sweep repetitions disagree")
    latest = store.checkout(-1)
    expected = len({latest.match(host).site for host in sample.hostnames})
    if series[0][-1][1] != expected:
        failures.append(f"latest site_count {series[0][-1][1]} != oracle {expected}")
    value = digest(series[0])
    _check_digest("sweep-history", f"{seed}:{SWEEP_SAMPLE}", value, failures)
    versions = len(series[0])
    out = {
        "attempted": reps * versions,
        "failed": lost,
        "failures": failures,
        "wall_s": sum(walls),
        "digest": value,
        "samples_ms": [w * 1e3 for w in walls],
        "throughput_per_s": versions / statistics.fmean(walls),
        "size": {"hosts": len(sample.hostnames), "requests": sample.request_count,
                 "versions": versions, "repetitions": reps},
    }
    if tracer is not None:
        tracer.finish()
        out["layers"] = batch_layers(tracer, "sweep-history", runs=reps, wall_s=sum(walls),
                                     versions=versions)
    return out


WORKLOADS = {
    "classify-bulk": (classify_setup, classify_run, classify_cleanup),
    "sweep-history": (sweep_setup, sweep_run, lambda inputs: None),
}


def child(workload: str, *, seed: int, seconds: float, trace: bool, probe: bool,
          ready: Callable[[], None]) -> dict | None:
    """Set up, signal ready, then (unless probing) run and measure."""
    setup, run, cleanup = WORKLOADS[workload]
    inputs = setup()
    try:
        ready()
        if probe:
            return None
        tracer = None
        if trace:
            tracer = Tracer()
            install_batch(tracer, workload)
        out = run(inputs, seed=seed, seconds=seconds, tracer=tracer)
    finally:
        cleanup(inputs)
    if tracer is not None:
        tracer.uninstall()
        tracer.flush(str(world.TRACE_DIR / f"trace-{workload}-{os.getpid()}.jsonl"))
        out["absent"] = tracer.absent
    out["mem_mib"] = world.peak_rss_mib()
    return out
