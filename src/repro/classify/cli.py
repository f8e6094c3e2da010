"""``psl-classify`` — bulk per-version classification from the shell.

One invocation classifies a synthetic request-log stream (the
deterministic generator in :mod:`repro.webgraph.requestlog`) under a
set of evenly spaced PSL versions and prints the per-version table.
The heavy input — the packed ``PSLPAK1`` history — is the pipeline's
content-addressed ``packed`` artifact, in ``--cache-dir`` when given
and in ``--run-dir``'s own store otherwise (packing the full history
once costs ~85 s on this class of host; every later run verifies and
maps the cached blob without loading it).

Scale harness: ``--frontier 1,3,10`` re-invokes this module once per
scale factor in a fresh subprocess (so each point's peak RSS is
honest), collects each run's ``--json`` stats, and prints the
records/s / memory frontier table that EXPERIMENTS.md records.

Exit status follows the repo convention: 0 clean, ``3`` when the run
completed degraded (quarantined chunks — counts cover the surviving
chunks only; see the runbook for how to resume such a run).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

from repro.classify.engine import ClassifyEngine, ClassifyResult, select_version_indexes
from repro.psl.packed import PackedHistory
from repro.webgraph.requestlog import RequestLogConfig, record_count

#: Exit status when the run completed with quarantined chunks.
EXIT_DEGRADED = 3


def peak_rss_mb() -> float:
    """Peak resident set of this process tree, in MiB.

    ``ru_maxrss`` is KiB on Linux; children are included so worker
    pools count against the number the frontier reports.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def packed_artifact_path(seed: int, cache_dir: str | None, run_dir: str) -> str | None:
    """The verified packed history blob the run maps and diffs.

    It is the world pipeline's raw ``packed`` artifact, in
    ``cache_dir`` (built once, shared by every later run and by
    ``psl-serve --packed``) or, without one, in a store under
    ``run_dir/artifacts``.  Both stores are content-addressed, so a run
    directory reused under another seed gets that seed's blob.
    """
    from repro.analysis.context import world_pipeline

    store_dir = cache_dir if cache_dir is not None else os.path.join(run_dir, "artifacts")
    return world_pipeline(seed, store_dir).path("packed")


def write_csv(path: str, result: ClassifyResult) -> None:
    rows = [row.to_json() for row in result.rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def run_frontier(arguments: argparse.Namespace) -> int:
    """Probe the scale frontier: one subprocess per scale factor."""
    scales = [float(token) for token in arguments.frontier.split(",") if token.strip()]
    print(f"{'scale':>7} {'records':>12} {'chunks':>7} {'elapsed':>9} "
          f"{'records/s':>11} {'peak MiB':>9} {'sites@latest':>13}")
    worst = 0
    for scale in scales:
        with tempfile.TemporaryDirectory(prefix="psl-classify-frontier-") as scratch:
            stats_path = os.path.join(scratch, "stats.json")
            command = [
                sys.executable, "-m", "repro.classify.cli",
                "--scale", repr(scale),
                "--seed", str(arguments.seed),
                "--versions", str(arguments.versions),
                "--workers", str(arguments.workers),
                "--malformed-rate", repr(arguments.malformed_rate),
                "--run-dir", os.path.join(scratch, "run"),
                "--json", stats_path,
                "--quiet",
            ]
            if arguments.cache_dir is not None:
                command += ["--cache-dir", arguments.cache_dir]
            if arguments.packed is not None:
                command += ["--packed", arguments.packed]
            status = subprocess.run(command).returncode
            if status != 0 or not os.path.exists(stats_path):
                print(f"{scale:>7g}  FAILED (exit {status}) — frontier reached")
                worst = status or 1
                break
            with open(stats_path, encoding="utf-8") as handle:
                stats = json.load(handle)
            latest = stats["rows"][-1]
            print(
                f"{scale:>7g} {stats['records']:>12,} {stats['chunks']:>7} "
                f"{stats['elapsed']:>8.1f}s {stats['records_per_second']:>11,.0f} "
                f"{stats['peak_rss_mb']:>9.0f} {latest['sites']:>13,}"
            )
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psl-classify",
        description="Classify a bulk synthetic request log under many PSL versions.",
    )
    parser.add_argument("--seed", type=int, default=20230701, help="world seed")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="request-log scale factor (1.0 = 1M records; 10 = the 10M regime)",
    )
    parser.add_argument(
        "--records", type=int, default=None,
        help="exact record count (overrides the count --scale implies)",
    )
    parser.add_argument(
        "--malformed-rate", type=float, default=0.0005,
        help="fraction of records carrying a malformed endpoint (count-and-skip)",
    )
    parser.add_argument(
        "--versions", type=int, default=100,
        help="how many evenly spaced PSL versions to classify under",
    )
    parser.add_argument(
        "--baseline", type=int, default=-1,
        help="version index the misclassification delta is measured against",
    )
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--blocks-per-task", type=int, default=4,
        help="generation blocks per chunk (65,536 records each)",
    )
    parser.add_argument(
        "--run-dir", default=None,
        help="run state (checkpoints, spills); required for --resume, "
        "ephemeral when omitted",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse checkpoints a previous run left in --run-dir",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="pipeline artifact store; the packed history is built once "
        "there and mmap-shared by every later run",
    )
    parser.add_argument(
        "--packed", default=None, metavar="PATH",
        help="an existing PSLPAK1 blob to classify against (skips the "
        "pipeline; overrides --cache-dir)",
    )
    parser.add_argument("--out", default=None, help="write the per-version table as CSV")
    parser.add_argument("--json", default=None, help="write full stats as JSON")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout table")
    parser.add_argument(
        "--frontier", default=None, metavar="SCALES",
        help="comma-separated scale factors: probe each in a fresh "
        "subprocess and print the throughput/memory frontier",
    )
    arguments = parser.parse_args(argv)
    if arguments.workers < 1:
        parser.error("--workers must be positive")
    if arguments.resume and arguments.run_dir is None:
        parser.error("--resume requires --run-dir")
    if arguments.frontier is not None:
        return run_frontier(arguments)

    scratch: tempfile.TemporaryDirectory | None = None
    run_dir = arguments.run_dir
    if run_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="psl-classify-")
        run_dir = scratch.name
    try:
        started = time.perf_counter()
        if arguments.packed is not None:
            packed = arguments.packed
        else:
            packed = packed_artifact_path(arguments.seed, arguments.cache_dir, run_dir)
        config = RequestLogConfig(
            seed=arguments.seed,
            scale=arguments.scale,
            records=arguments.records,
            malformed_rate=arguments.malformed_rate,
        )
        # One open (one CRC pass) serves both the count and the engine.
        history = PackedHistory.load(os.path.abspath(packed))
        total_versions = len(history)
        engine = ClassifyEngine(
            history,
            version_indexes=select_version_indexes(total_versions, arguments.versions),
            baseline=arguments.baseline,
            workers=arguments.workers,
            run_dir=run_dir,
            resume=arguments.resume,
        )
        if not arguments.quiet:
            print(
                f"classifying {record_count(config):,} records under "
                f"{len(engine.version_indexes)} of {total_versions} versions "
                f"(baseline v{engine.baseline_index}, {arguments.workers} workers)"
            )
        result = engine.run_synthetic(config, blocks_per_task=arguments.blocks_per_task)
        wall = time.perf_counter() - started

        if arguments.out is not None:
            write_csv(arguments.out, result)
        if arguments.json is not None:
            stats = result.to_json()
            stats["wall_seconds"] = round(wall, 3)
            stats["peak_rss_mb"] = round(peak_rss_mb(), 1)
            stats["scale"] = arguments.scale
            stats["workers"] = arguments.workers
            with open(arguments.json, "w", encoding="utf-8") as handle:
                json.dump(stats, handle, indent=1, sort_keys=True)
        if not arguments.quiet:
            print(result.summary())
            print(
                f"  wall {wall:.1f}s (run {result.elapsed:.1f}s), "
                f"peak rss {peak_rss_mb():.0f} MiB"
            )
        if result.degraded:
            if arguments.run_dir is None:
                print(
                    "hint: re-run with --run-dir and --resume to retry only "
                    "the quarantined chunks",
                    file=sys.stderr,
                )
            return EXIT_DEGRADED
        return 0
    finally:
        if scratch is not None:
            scratch.cleanup()


if __name__ == "__main__":
    sys.exit(main())
