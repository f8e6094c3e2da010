"""``compare`` two record sets, and ``--check-config`` for BENCHMARK.json.

``compare PARENT.json CHANGE.json [CHANGE2.json ...]`` prints, for
every (workload, metric), each side's median and quartiles and a
verdict from :func:`benchmarks.e2e.stats.verdict` under the bound
``BENCHMARK.json`` fixes.  Runs pair up in record order, so records
made with ``--runs`` over the same seeds compare seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
from collections import defaultdict
from typing import Any

from benchmarks.e2e import world
from benchmarks.e2e.stats import quartiles, verdict

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_BOUND = 0.25
#: A full evaluation makes 4 + 22 runs per workload and must end within 3,420 s.
EVALUATION_RUNS = (4, 22)
EVALUATION_CAP_S = 3420


def record_values(path: str) -> dict[tuple[str, str], list[float]]:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    values: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
    for run in record["runs"]:
        for name, (value, _unit, _count) in run["metrics"].items():
            values[(run["workload"], name)].append(value)
    return dict(values)


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("parent")
    parser.add_argument("changes", nargs="+")
    args = parser.parse_args(argv)
    config = _load(str(world.BENCHMARK_JSON))
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    parent = record_values(args.parent)
    verdicts: list[str] = []
    for path in args.changes:
        change = record_values(path)
        print(f"{args.parent} -> {path}")
        print(f"  {'workload':18s} {'metric':32s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'delta':>8s}  verdict")
        for key in sorted(set(parent) & set(change)):
            workload, metric = key
            spec = specs.get(metric)
            if spec is None:
                continue
            before, after = parent[key], change[key]
            result = "-"
            if "bound" in spec:
                result = verdict(before, after, better=spec["better"], bound=spec["bound"])
                verdicts.append(result)
            base = statistics.median(before)
            delta = (statistics.median(after) - base) / base if base else 0.0
            print(f"  {workload:18s} {metric:32s} {_side(before):>34s} {_side(after):>34s} "
                  f"{delta:+8.1%}  {result}")
    counts = {v: verdicts.count(v) for v in ("better", "worse", "unchanged", "unresolved")}
    print("verdicts: " + ", ".join(f"{count} {name}" for name, count in counts.items()))
    return 0


def _side(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- --check-config ---------------------------------------------------------------


def check_config(config: dict[str, Any], *, size: int = 0) -> list[str]:
    """Every way ``config`` breaks the BENCHMARK.json format rules (empty: none)."""
    from benchmarks.e2e.layers import LAYER_UNITS, MEASURED
    from benchmarks.e2e.run import E2E_UNITS, WORKLOADS

    problems: list[str] = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(config) != expected_keys:
        return [f"top-level keys {sorted(config)} != {sorted(expected_keys)}"]
    if size > 64 * 1024:
        problems.append(f"BENCHMARK.json is {size} bytes, over 64 KiB")

    paths = config["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
        paths = []
    for path in paths:
        if not PATH.match(path) or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"illegal path {path!r}")
        elif not os.path.isdir(world.REPO_ROOT / path):
            problems.append(f"path {path!r} is not a directory")
    command = config["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        problems.append("command must be a list of 1 to 32 strings")
        command = []
    for part in command:
        if not isinstance(part, str) or len(part) > 200:
            problems.append(f"illegal command part {part!r}")
        elif part.startswith("/") or ".." in part.split("/"):
            problems.append(f"command part {part!r} leaves the checkout")
        elif "/" in part and not any(part.startswith(p.rstrip("/") + "/") for p in paths):
            problems.append(f"command names {part!r} outside paths")
    seconds = config["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []
    workloads = config["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("workloads must number 2 to 8")
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            problems.append(f"workload keys {sorted(workload)} != ['name', 'why']")
            continue
        names.append(workload["name"])
        why = workload["why"]
        if not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {workload['name']!r}: 'why' must be one line of <= 200 characters")
    if set(names) != set(WORKLOADS):
        problems.append(f"workloads {sorted(names)} != the runner's {sorted(WORKLOADS)}")
    runs = EVALUATION_RUNS[0] + EVALUATION_RUNS[1] * len(workloads)
    if isinstance(seconds, int) and runs * seconds > EVALUATION_CAP_S:
        problems.append(f"{runs} runs of {seconds}s exceed the {EVALUATION_CAP_S}s evaluation cap")

    e2e, layers = config["end_to_end"], config["per_layer"]
    if not 1 <= len(e2e) <= 16:
        problems.append("end_to_end must list 1 to 16 metrics")
    if not 1 <= len(layers) <= 128:
        problems.append("per_layer must list 1 to 128 metrics")
    for metric in e2e:
        if set(metric) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end metric {metric.get('name')!r}: keys {sorted(metric)}, bound required")
            continue
        bound = metric["bound"]
        if not isinstance(bound, (int, float)) or not 0 < bound <= MAX_BOUND:
            problems.append(f"{metric['name']}: bound {bound!r} outside (0, {MAX_BOUND}]")
    for metric in layers:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {metric.get('name')!r}: keys {sorted(metric)}")
    for metric in e2e + layers:
        name = metric.get("name", "")
        names.append(name)
        if not NAME.match(name):
            problems.append(f"illegal metric name {name!r}")
        if not UNIT.match(metric.get("unit", "")):
            problems.append(f"{name}: illegal unit {metric.get('unit')!r}")
        if metric.get("better") not in ("higher", "lower"):
            problems.append(f"{name}: 'better' must be higher or lower")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")

    setup = next((m for m in e2e if m.get("name") == "setup_s"), None)
    if setup is None or setup.get("unit") != "s" or setup.get("better") != "lower":
        problems.append("setup_s (unit s, lower) is required")
    elif setup.get("bound") != max(m.get("bound", 0) for m in e2e):
        problems.append("setup_s must carry the largest bound")

    listed = {m.get("name"): m.get("unit") for m in e2e}
    if listed != E2E_UNITS:
        problems.append(f"end-to-end metrics {listed} != produced {E2E_UNITS}")
    listed = {m.get("name"): m.get("unit") for m in layers}
    if listed != LAYER_UNITS:
        problems.append("per-layer metrics differ from the layer map's")
    measured = set().union(*MEASURED.values())
    unmeasured = sorted(name for name in listed if name not in measured)
    if unmeasured:
        problems.append(f"per-layer metrics no workload produces: {unmeasured}")
    return problems


def check_config_main() -> int:
    path = str(world.BENCHMARK_JSON)
    problems = check_config(_load(path), size=os.path.getsize(path))
    for problem in problems:
        print(f"BENCHMARK.json: {problem}")
    if not problems:
        print("BENCHMARK.json: ok")
    return 1 if problems else 0
