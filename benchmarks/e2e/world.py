"""The benchmark world: where it lives, how it is built, how it is loaded.

All four workloads read one world — the 1,142-version history, the
Figures 5-7 snapshot (``figures_config``) and the packed blob of the
history — built once by the pipeline's own stages into
``benchmarks/artifacts/e2e-cache/``, the same store ``--cache-dir``
reads.  The world seed is fixed (:data:`WORLD_SEED`); a run's
``--seed`` varies what is drawn *from* the world (request logs, host
samples, traffic), so ten seeds cost one build, not ten.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[2]
CACHE_DIR = REPO_ROOT / "benchmarks" / "artifacts" / "e2e-cache"
TRACE_DIR = REPO_ROOT / "benchmarks" / "artifacts" / "e2e"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
WORLD_SEED = 20230701
_MARKER = CACHE_DIR / "e2e-world.json"
_STAGES = ("history", "snapshot", "packed")


def world_pipeline():
    """The world stages over the benchmark's artifact store."""
    from repro.analysis.context import SweepSettings, figures_config, world_stages
    from repro.pipeline import ArtifactStore, Pipeline

    return Pipeline(
        world_stages(WORLD_SEED, figures_config(WORLD_SEED), SweepSettings()),
        store=ArtifactStore(str(CACHE_DIR)),
    )


def _fingerprints(pipeline) -> dict[str, str]:
    return {stage: pipeline.fingerprint_of(stage) for stage in _STAGES}


def is_prepared() -> bool:
    """True when the cache holds this code's world (fingerprints match)."""
    try:
        recorded = json.loads(_MARKER.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return recorded == _fingerprints(world_pipeline())


def prepare() -> float:
    """Build (or load) every world stage; returns the seconds it took."""
    started = time.perf_counter()
    pipeline = world_pipeline()
    for stage in _STAGES:
        pipeline.build(stage)
    _MARKER.write_text(json.dumps(_fingerprints(pipeline), sort_keys=True), encoding="utf-8")
    return time.perf_counter() - started


def load_inputs() -> tuple[Any, Any]:
    """(history store, figures snapshot), from the cache."""
    pipeline = world_pipeline()
    return pipeline.build("history"), pipeline.build("snapshot")


def packed_path() -> str:
    pipeline = world_pipeline()
    path = pipeline.store.payload_path("packed", pipeline.fingerprint_of("packed"))
    if path is None:
        raise RuntimeError("the packed world artifact is missing; run prepare first")
    return path


def host_shape() -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mib() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pss_mib(pids: list[int]) -> float:
    """Summed proportional set size of ``pids`` (shared pages split)."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    """Summed user + system CPU seconds of ``pids``."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def child_env() -> dict[str, str]:
    """Environment for a program process: ``src`` and the repo importable."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
