"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src:. python -m benchmarks.e2e [--workload NAME|all] [--seed S]
        [--runs K] [--trace] [--out FILE]
    PYTHONPATH=src:. python -m benchmarks.e2e compare PARENT.json CHANGE.json [...]
    PYTHONPATH=src:. python -m benchmarks.e2e --check-config

Each workload runs in a fresh child process.  Every metric is printed
by name with its unit and sample count; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``
(untraced: the end-to-end metrics; ``--trace 1``: the per-layer
metrics).  A wrong answer makes the exit status 1.  The first run in
a checkout builds the world cache (``prepare``, about half a minute).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from benchmarks.e2e import world  # noqa: E402
from benchmarks.e2e.stats import distribution  # noqa: E402

WORKLOADS = ("classify-bulk", "sweep-history", "serve-site", "serve-fleet-batch")
BATCH = ("classify-bulk", "sweep-history")
#: The end-to-end metrics every workload reports, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "mem_mib": "MiB",
    "throughput_per_s": "1/s",
    "latency_tail_ms": "ms",
}
CHILD_TIMEOUT = 170.0
PREPARE_TIMEOUT = 880.0


def load_config() -> dict:
    with open(world.BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# -- child processes ------------------------------------------------------------


def _spawn(args: list[str], timeout: float) -> tuple[list[str], float | None]:
    """Run ``run.py`` with ``args`` in its own process group; (stdout lines, ready time).

    The child's process group holds every server it launches, so a
    timeout kills the whole tree.
    """
    command = [sys.executable, os.path.abspath(__file__), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=world.REPO_ROOT, env=world.child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    ready: float | None = None
    lines: list[str] = []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - started
            else:
                lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        reason = "timed out" if proc.returncode == -signal.SIGKILL else f"exited with {proc.returncode}"
        raise RuntimeError(f"child {' '.join(args)} {reason}")
    return lines, ready


def _child_result(lines: list[str]) -> dict:
    for line in reversed(lines):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RuntimeError("child printed no result")


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py _child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    world.TRACE_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload in BATCH:
        from benchmarks.e2e import batch

        result = batch.child(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            probe=args.probe, ready=lambda: print("READY", flush=True),
        )
    else:
        from benchmarks.e2e import serving

        result = serving.WORKLOADS[args.workload](
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
    if result is not None:
        print("RESULT " + json.dumps(result), flush=True)
    return 0


def ensure_prepared() -> float | None:
    """Build the world cache if this code's world is not in it yet."""
    if world.is_prepared():
        return None
    lines, _ = _spawn(["_prepare"], PREPARE_TIMEOUT)
    return float(lines[-1])


# -- one workload ---------------------------------------------------------------


def _child_args(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["_child", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def run_workload(workload: str, *, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run: {correct, attempted, failed, metrics, detail}."""
    if trace:
        return _run_traced(workload, seed, seconds)
    args = _child_args(workload, seed, seconds, 0)
    if workload in BATCH:
        setups = [_spawn(args + ["--probe"], CHILD_TIMEOUT)[1] for _ in range(2)]
        lines, ready = _spawn(args, CHILD_TIMEOUT)
        result = _child_result(lines)
        setups.append(ready)
        latency = distribution(result["samples_ms"]).to_json()
    else:
        result = _child_result(_spawn(args, CHILD_TIMEOUT)[0])
        setups = result["setups_s"]
        latency = result["latency"]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "mem_mib": (result["mem_mib"], 1),
        "throughput_per_s": (result["throughput_per_s"], latency["n"]),
        "latency_tail_ms": (latency["tail"], latency["n"]),
    }
    metrics = {name: (value, E2E_UNITS[name], count) for name, (value, count) in values.items()}
    detail = {"setups_s": setups, "latency_ms": latency, "size": result.get("size"),
              "digest": result.get("digest")}
    return _outcome(result, metrics, detail)


def _run_traced(workload: str, seed: int, seconds: float) -> dict:
    for old in world.TRACE_DIR.glob(f"trace-{workload}-*.jsonl"):
        old.unlink()  # keep only the latest traced run of each workload
    if workload in BATCH:
        base = _child_result(_spawn(_child_args(workload, seed, seconds, 0), CHILD_TIMEOUT)[0])
        result = _child_result(_spawn(_child_args(workload, seed, seconds, 1), CHILD_TIMEOUT)[0])
        result["layers"]["trace.overhead"] = result["wall_s"] / base["wall_s"] - 1.0
        result["failures"] += base["failures"]
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
    else:
        result = _child_result(_spawn(_child_args(workload, seed, seconds, 1), CHILD_TIMEOUT)[0])
    from benchmarks.e2e.layers import LAYER_UNITS, zero_filled

    layers = zero_filled(result["layers"])
    metrics = {name: (value, LAYER_UNITS[name], 1) for name, value in layers.items()}
    return _outcome(result, metrics, {"absent": result.get("absent", [])})


def _outcome(result: dict, metrics: dict, detail: dict) -> dict:
    return {
        "correct": not result["failures"] and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "failures": result["failures"],
        "metrics": metrics,
        "detail": detail,
    }


# -- the command ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print("benchmarks/e2e: no src/repro beside the benchmark; run it from a full checkout",
              file=sys.stderr)
        return 2
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    if argv[:1] == ["_prepare"]:
        print(f"{world.prepare():.3f}", flush=True)
        return 0
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import compare_main

        return compare_main(argv[1:])
    config = load_config()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=world.WORLD_SEED)
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="write the JSON record here")
    parser.add_argument("--check-config", action="store_true")
    args = parser.parse_args(argv)
    if args.check_config:
        from benchmarks.e2e.compare import check_config_main

        return check_config_main()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    world.TRACE_DIR.mkdir(parents=True, exist_ok=True)
    prepare_s = ensure_prepared()
    if prepare_s is not None:
        print(f"prepare: built the world cache in {prepare_s:.1f}s", flush=True)
    record = {
        "benchmark": "benchmarks/e2e",
        "git_sha": world.git_sha(),
        "host": world.host_shape(),
        "seconds": args.seconds,
        "trace": args.trace,
        "prepare_s": prepare_s,
        "runs": [],
    }
    expected = {m["name"] for m in config["per_layer" if args.trace else "end_to_end"]}
    for offset in range(args.runs):
        seed = args.seed + offset
        for workload in workloads:
            outcome = run_workload(workload, seed=seed, seconds=args.seconds, trace=bool(args.trace))
            differ = expected ^ set(outcome["metrics"])
            if differ:
                raise RuntimeError(f"{workload} metric set differs from BENCHMARK.json: {sorted(differ)}")
            _print_outcome(workload, seed, outcome)
            record["runs"].append({"workload": workload, "seed": seed, **outcome})
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, indent=1, sort_keys=True)
    runs = record["runs"]
    single = len(runs) == 1
    summary = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            (name if single else f"{run['workload']}:{run['seed']}:{name}"): {"value": value, "unit": unit}
            for run in runs
            for name, (value, unit, _) in run["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def _print_outcome(workload: str, seed: int, outcome: dict) -> None:
    verdict = "correct" if outcome["correct"] else "WRONG"
    print(f"{workload} seed={seed}: {verdict}, {outcome['failed']}/{outcome['attempted']} failed")
    for failure in outcome["failures"]:
        print(f"  failure: {failure}")
    for name, (value, unit, count) in outcome["metrics"].items():
        print(f"  {name:32s} {value:16.6g} {unit:8s} n={count}")
    detail = outcome["detail"]
    latency = detail.get("latency_ms")
    if latency:
        print(f"  (not gated) p50 latency {latency['p50']:.4g} ms, mean {latency['mean']:.4g} ms")
        if latency["top_pct"] is not None:
            print(f"  (not gated) p{latency['top_pct']:g} latency {latency['top']:.4g} ms, "
                  f"the highest percentile with ten samples beyond it")
    size = detail.get("size") or {}
    for key in ("swap_visible_p50_ms", "cache_hit_ratio"):
        if size.get(key) is not None:
            print(f"  (not gated) {key} {size[key]:.4g}")
    if detail.get("absent"):
        print(f"  absent layers: {', '.join(detail['absent'])}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
