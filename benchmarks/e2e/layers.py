"""The layer map: what the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Each target below is
the name a caller looks up at call time — ``repro.classify.engine``
reaches ``classify_chunk`` through its own module global, so that is
the attribute replaced.  Every per-layer metric of ``BENCHMARK.json``
is produced for every workload; a layer a workload never enters
reads 0, and a layer whose wrapper target is gone is listed as absent
in the record (its time then falls to the enclosing layer, which
``trace.coverage`` shows).
"""

from __future__ import annotations

import http.server
from collections import Counter, defaultdict
from typing import Any, Iterable

from benchmarks.e2e.trace import Tracer, self_after, self_times

# -- wrapper targets ----------------------------------------------------------


def _observe_chunk(tracer: Tracer, chunk: Any) -> None:
    tracer.values["columnar.records"] += chunk.records
    tracer.values["columnar.hosts"] += len(chunk.hosts)


def _observe_spill(tracer: Tracer, ref: Any) -> None:
    tracer.values["partials.spill_bytes"] += ref.nbytes


def _observe_changes(tracer: Tracer, rows: Any) -> None:
    tracer.values["sites.changed"] += len(rows)


#: (target, span name, kind, observer) per batch workload.
BATCH_TARGETS: dict[str, list[tuple]] = {
    "classify-bulk": [
        ("repro.classify.engine:ClassifyEngine.run_synthetic", "classify.run", "span", None),
        ("repro.runtime:ResilientExecutor.run", "runtime.execute", "span", None),
        ("repro.classify.engine:classify_chunk", "partials.walk", "span", None),
        ("repro.classify.columnar:columnar_chunk", "columnar.ingest", "span", _observe_chunk),
        ("repro.classify.columnar:iter_block", "requestlog.generate", "generator", None),
        ("repro.psl.packed:PackedTrie.iter_rules", "packed.plan", "generator", None),
        ("repro.classify.partials:site_for_reversed", "partials.trie_walks", "count", None),
        ("repro.classify.partials:SpillWriter.add", "partials.spill_write", "aggregate", None),
        ("repro.classify.partials:SpillWriter.finish", "partials.spill_write", "aggregate", _observe_spill),
        ("repro.classify.partials:SpillRef.verify", "runtime.verify", "span", None),
        ("repro.runtime:CheckpointStore.save", "runtime.checkpoint", "aggregate", None),
        ("repro.runtime:CheckpointStore.load", "runtime.checkpoint", "aggregate", None),
        ("repro.runtime:CheckpointStore.reconcile", "runtime.checkpoint", "span", None),
        ("repro.classify.engine:SpillReader.read", "classify.spill_read", "aggregate", None),
    ],
    "sweep-history": [
        ("repro.sweep.engine:SweepEngine.sweep", "sweep.run", "span", None),
        ("repro.runtime:ResilientExecutor.run", "runtime.execute", "span", None),
        ("repro.sweep.engine:prepare_hosts", "sweep.prepare", "span", None),
        ("repro.sweep.engine:run_host_chunk", "sweep.host_replay", "span", None),
        ("repro.sweep.engine:run_pair_chunk", "sweep.pair_replay", "span", None),
        ("repro.webgraph.sites:IncrementalGrouper.apply_detailed", "sites.delta_apply", "aggregate",
         _observe_changes),
        ("repro.webgraph.sites:IncrementalGrouper.apply", "sites.delta_apply", "aggregate", None),
        ("repro.webgraph.thirdparty:ThirdPartyCounter.update", "thirdparty.update", "aggregate", None),
        ("repro.psl.packed:PackedTrie.iter_rules", "packed.plan", "generator", None),
    ],
}

#: Self-time layers (seconds per run) and the span each one reads.
BATCH_LAYERS: dict[str, str] = {
    "requestlog.generate_s": "requestlog.generate",
    "columnar.ingest_s": "columnar.ingest",
    "packed.plan_s": "packed.plan",
    "partials.walk_s": "partials.walk",
    "partials.spill_write_s": "partials.spill_write",
    "runtime.verify_s": "runtime.verify",
    "runtime.checkpoint_s": "runtime.checkpoint",
    "runtime.execute_s": "runtime.execute",
    "classify.merge_s": "classify.run",  # only the part after the executor
    "classify.spill_read_s": "classify.spill_read",
    "sweep.prepare_s": "sweep.prepare",
    "sweep.host_replay_s": "sweep.host_replay",
    "sweep.pair_replay_s": "sweep.pair_replay",
    "sites.delta_apply_s": "sites.delta_apply",
    "thirdparty.update_s": "thirdparty.update",
    "sweep.merge_s": "sweep.run",
}

SERVE_TARGETS: list[tuple] = [
    ("repro.serve.core:RequestCore.handle", "core.handle", "span", None),
    ("repro.serve.core:Response.encoded", "core.encode", "span", None),
    ("repro.serve.engine:QueryEngine.site", "engine.answer", "span", None),
    ("repro.serve.engine:QueryEngine.batch", "engine.answer", "span", None),
    ("repro.serve.engine:normalize_or_reject", "hostname.normalize", "aggregate", None),
    ("repro.serve.snapshots:PslSnapshot.match", "snapshots.match", "aggregate", None),
    ("repro.serve.fleet:BusEpochs.swap", "fleet.swap_publish", "span", None),
    ("repro.serve.fleet:apply_event", "fleet.apply_event", "span", None),
]

#: Every per-layer metric, for the metric-set check and zero-filling.
LAYER_UNITS: dict[str, str] = {
    **{name: "s/run" for name in BATCH_LAYERS},
    "columnar.records_per_host": "ratio",
    "partials.trie_walks": "count",
    "partials.walk_fraction": "ratio",
    "partials.spill_bytes": "bytes",
    "sites.changed_per_version": "count",
    "http.parse_us": "us/req",
    "http.write_us": "us/req",
    "http.request_us": "us/req",
    "core.handle_us": "us/req",
    "core.encode_us": "us/req",
    "engine.answer_us": "us/req",
    "hostname.normalize_us": "us/req",
    "snapshots.match_us": "us/req",
    "engine.answer_us_per_host": "us/host",
    "hostname.normalize_us_per_host": "us/host",
    "snapshots.match_us_per_host": "us/host",
    "fleet.swap_publish_ms": "ms",
    "fleet.apply_event_ms": "ms",
    "fleet.worker_skew": "ratio",
    "fleet.swap_visible_ms": "ms",
    "serve.cpu_us_per_request": "us/req",
    "serve.cpu_us_per_hostname": "us/host",
    "engine.cache_hit_ratio": "ratio",
    "core.rejected": "count",
    "trace.coverage": "ratio",
    "trace.server_share": "ratio",
    "trace.overhead": "ratio",
}

#: Which layer metrics each workload actually measures (the rest read 0).
MEASURED: dict[str, set[str]] = {
    "classify-bulk": {
        "requestlog.generate_s", "columnar.ingest_s", "columnar.records_per_host",
        "packed.plan_s", "partials.walk_s", "partials.trie_walks", "partials.walk_fraction",
        "partials.spill_write_s", "partials.spill_bytes", "runtime.verify_s",
        "runtime.checkpoint_s", "runtime.execute_s", "classify.merge_s",
        "classify.spill_read_s", "trace.coverage", "trace.overhead",
    },
    "sweep-history": {
        "sweep.prepare_s", "sweep.host_replay_s", "sweep.pair_replay_s",
        "sites.delta_apply_s", "thirdparty.update_s", "sweep.merge_s", "runtime.execute_s",
        "sites.changed_per_version", "trace.coverage", "trace.overhead",
    },
    "serve-site": {
        "http.parse_us", "http.write_us", "http.request_us", "core.handle_us",
        "core.encode_us", "engine.answer_us", "hostname.normalize_us", "snapshots.match_us",
        "engine.answer_us_per_host", "hostname.normalize_us_per_host",
        "snapshots.match_us_per_host", "serve.cpu_us_per_request", "serve.cpu_us_per_hostname",
        "engine.cache_hit_ratio", "core.rejected", "trace.coverage", "trace.server_share",
        "trace.overhead", "fleet.worker_skew",
    },
}
MEASURED["serve-fleet-batch"] = MEASURED["serve-site"] | {
    "fleet.swap_publish_ms", "fleet.apply_event_ms", "fleet.swap_visible_ms",
}


def zero_filled(measured: dict[str, float]) -> dict[str, float]:
    """Every layer metric, 0 where the workload never entered the layer."""
    return {name: float(measured.get(name, 0.0)) for name in LAYER_UNITS}


# -- installing ---------------------------------------------------------------


def install_batch(tracer: Tracer, workload: str) -> None:
    for target, name, kind, observe in BATCH_TARGETS[workload]:
        tracer.wrap(target, name, kind=kind, observe=observe)


def install_serve(tracer: Tracer) -> None:
    """Serve wrappers, including the request span.

    The request span opens when ``parse_request`` starts (the request
    line has been read, so keep-alive idle time is excluded) and closes
    when ``handle_one_request`` returns (the response is written).
    """
    handler = http.server.BaseHTTPRequestHandler
    parse = handler.parse_request
    handle_one = handler.handle_one_request

    def parse_request(self: Any) -> bool:
        self._e2e_request = tracer.open("http.request")
        frame = tracer.open("http.parse")
        try:
            return parse(self)
        finally:
            tracer.close(frame)

    def handle_one_request(self: Any) -> None:
        try:
            handle_one(self)
        finally:
            frame = self.__dict__.pop("_e2e_request", None)
            if frame is not None:
                tracer.close(frame)

    handler.parse_request = parse_request
    handler.handle_one_request = handle_one_request
    for target, name, kind, observe in SERVE_TARGETS:
        tracer.wrap(target, name, kind=kind, observe=observe)


# -- deriving -----------------------------------------------------------------


def batch_layers(tracer: Tracer, workload: str, *, runs: int, wall_s: float,
                 versions: int) -> dict[str, float]:
    """Per-layer metrics of ``runs`` traced batch jobs (in-process)."""
    selfs = self_times(tracer.records)
    if workload == "classify-bulk":
        selfs["classify.run"] = self_after(tracer.records, "classify.run", "runtime.execute")
    out: dict[str, float] = {}
    for metric, span in BATCH_LAYERS.items():
        if metric in MEASURED[workload]:
            out[metric] = selfs.get(span, 0.0) / 1e9 / runs
    covered = sum(out.values()) * runs
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    values = tracer.values
    if workload == "classify-bulk":
        hosts = values.get("columnar.hosts", 0.0)
        walks = tracer.counts.get("partials.trie_walks", 0)
        out["columnar.records_per_host"] = values.get("columnar.records", 0.0) / hosts if hosts else 0.0
        out["partials.trie_walks"] = walks / runs
        out["partials.walk_fraction"] = walks / (hosts * versions) if hosts else 0.0
        out["partials.spill_bytes"] = values.get("partials.spill_bytes", 0.0) / runs
    else:
        steps = max(1, versions - 1) * runs
        out["sites.changed_per_version"] = values.get("sites.changed", 0.0) / steps
    return out


def serve_layers(records: Iterable[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of every server process."""
    records = list(records)
    selfs = self_times(records)
    busy: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    per_pid: Counter[int] = Counter()
    for record in records:
        busy[record["name"]] += record["busy"]
        calls[record["name"]] += record["n"]
        if record["name"] == "http.request":
            per_pid[record["pid"]] += 1
    requests = calls["http.request"] or 1
    hosts = calls["hostname.normalize"] or 1
    us = 1e3
    out = {
        "http.parse_us": selfs.get("http.parse", 0.0) / requests / us,
        "http.write_us": selfs.get("http.request", 0.0) / requests / us,
        "http.request_us": busy["http.request"] / requests / us,
        "core.handle_us": selfs.get("core.handle", 0.0) / requests / us,
        "core.encode_us": selfs.get("core.encode", 0.0) / requests / us,
    }
    for layer in ("engine.answer", "hostname.normalize", "snapshots.match"):
        out[f"{layer}_us"] = selfs.get(layer, 0.0) / requests / us
        out[f"{layer}_us_per_host"] = selfs.get(layer, 0.0) / hosts / us
    for metric, span in (("fleet.swap_publish_ms", "fleet.swap_publish"),
                         ("fleet.apply_event_ms", "fleet.apply_event")):
        out[metric] = busy[span] / calls[span] / 1e6 if calls[span] else 0.0
    counts = list(per_pid.values())
    out["fleet.worker_skew"] = max(counts) / min(counts) if counts else 0.0
    out["_request_busy_s"] = busy["http.request"] / 1e9
    return out
