"""PERF — the update loop: swap propagation latency + SLO exactness.

Two gates guard ``repro.update`` (ISSUE 8 acceptance):

* **swap propagation < 250 ms** — from the moment the watcher's poll
  returns (a new version validated, committed, and hot-swapped), a
  client issuing a ``/site`` request over real HTTP must observe the
  new version within 250 ms (measured as the latency of the first
  request that reflects it; the swap itself is an atomic reference
  assignment, so this is effectively one HTTP round-trip).
* **staleness gauges exactly match the journal** — every
  ``psl_serve_update_*`` gauge scraped from ``/metrics`` must equal
  the value *implied by the ingest journal* (accepted/resynced/
  quarantined counts, poll count, failed polls, versions behind, and
  the active version's age derived from the last accepted record).
  The journal is the ground truth of the run; a gauge that drifts
  from it is lying to the operator.
"""

from __future__ import annotations

import datetime
import json
import time
import threading
import urllib.request

import pytest

from benchmarks.conftest import BENCH_SEED, save_artifact
from repro.history.store import VersionStore
from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.runtime.executor import RetryPolicy
from repro.serve.http import PslServer
from repro.serve.snapshots import SnapshotRegistry
from repro.update.slo import SloPolicy
from repro.runtime.faults import Fault, FaultPlan
from repro.update.upstream import (
    ALWAYS,
    SyntheticUpstream,
    UpstreamFaultKind,
    patch_key,
)
from repro.update.watcher import Watcher, WatcherConfig

pytestmark = pytest.mark.bench

MAX_SWAP_PROPAGATION_SECONDS = 0.250
SWAP_ROUNDS = 6


@pytest.fixture(scope="module")
def history():
    return synthesize_history(SynthesisConfig(seed=BENCH_SEED))


def prefix(full: VersionStore, count: int) -> VersionStore:
    store = VersionStore()
    for version in full.versions[:count]:
        store.commit(version.date, version.delta, message=version.message)
    return store


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def test_bench_swap_propagation_latency(history):
    behind = SWAP_ROUNDS
    local = prefix(history, len(history) - behind)
    registry = SnapshotRegistry(local)
    server = PslServer(("127.0.0.1", 0), registry)
    upstream = SyntheticUpstream(
        history, published=len(local) - 1, sleep=lambda _: None
    )
    today = history.latest.date + datetime.timedelta(days=1)
    watcher = Watcher(
        registry,
        upstream,
        config=WatcherConfig(poll_interval=0.05, retry=RetryPolicy(backoff_base=0.0)),
        sleep=lambda _: None,
        today=lambda: today,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        latencies = []
        for _ in range(SWAP_ROUNDS):
            expected = upstream.publish_next()
            watcher.poll_once()
            started = time.perf_counter()
            answer = get(server.url + "/site?host=www.example.com")
            elapsed = time.perf_counter() - started
            assert answer["version"] == expected, "client did not observe the swap"
            latencies.append(elapsed)
        worst = max(latencies)
        mean = sum(latencies) / len(latencies)
        rows = [
            "swap propagation: poll_once returns -> client-visible over HTTP",
            f"rounds          {SWAP_ROUNDS}",
            f"mean latency    {mean * 1000:8.2f} ms",
            f"worst latency   {worst * 1000:8.2f} ms",
            f"gate            {MAX_SWAP_PROPAGATION_SECONDS * 1000:8.2f} ms",
        ]
        print("\n" + "\n".join(rows))
        save_artifact("bench_update_swap.txt", "\n".join(rows))
        assert worst < MAX_SWAP_PROPAGATION_SECONDS, (
            f"swap propagation {worst * 1000:.1f} ms breaches the "
            f"{MAX_SWAP_PROPAGATION_SECONDS * 1000:.0f} ms gate"
        )
    finally:
        assert server.drain(deadline=5.0)
        thread.join(timeout=5)


def test_bench_staleness_gauges_match_the_journal_exactly(history):
    behind = 8
    local = prefix(history, len(history) - behind)
    pending = list(range(len(local), len(history)))
    plan = FaultPlan(
        faults={
            patch_key(pending[1]): Fault(UpstreamFaultKind.TRUNCATE, attempts=1),
            patch_key(pending[3]): Fault(
                UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS
            ),
            patch_key(pending[5]): Fault(
                UpstreamFaultKind.BAD_CHECKSUM, attempts=ALWAYS
            ),
        }
    )
    registry = SnapshotRegistry(local)
    server = PslServer(("127.0.0.1", 0), registry)
    upstream = SyntheticUpstream(history, plan=plan, sleep=lambda _: None)
    today = history.latest.date + datetime.timedelta(days=1)
    watcher = Watcher(
        registry,
        upstream,
        config=WatcherConfig(
            poll_interval=0.05,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            slo=SloPolicy(max_age_days=365),
        ),
        sleep=lambda _: None,
        today=lambda: today,
    )
    server.attach_watcher(watcher)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        polls = 3
        for _ in range(polls):
            watcher.poll_once()

        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as response:
            text = response.read().decode()
        scraped = {
            line.split(" ")[0]: float(line.split(" ")[1])
            for line in text.splitlines()
            if line.startswith("psl_serve_update_") and not line.startswith("# ")
        }

        # Ground truth derived ONLY from the journal.
        journal = watcher.journal
        counts = journal.counts()
        last_ingested = [
            r for r in journal.records if r.action in ("accepted", "resynced")
        ][-1]
        active_date = datetime.date.fromisoformat(last_ingested.date)
        expected = {
            "psl_serve_update_accepted_total": counts.get("accepted", 0),
            "psl_serve_update_resynced_total": counts.get("resynced", 0),
            "psl_serve_update_quarantined_total": counts.get("quarantined", 0),
            "psl_serve_update_polls_total": polls,
            "psl_serve_update_failed_polls": 0,
            "psl_serve_update_versions_behind": 0,
            "psl_serve_update_active_age_days": (today - active_date).days,
            'psl_serve_update_health{state="fresh"}': 1,
            'psl_serve_update_health{state="stale"}': 0,
            'psl_serve_update_health{state="degraded"}': 0,
        }
        mismatches = {
            name: (scraped.get(name), value)
            for name, value in expected.items()
            if scraped.get(name) != value
        }
        rows = ["staleness gauge exactness (scraped vs journal-derived):"]
        for name, value in sorted(expected.items()):
            rows.append(f"{name:48s} {scraped.get(name)!s:>8} == {value}")
        print("\n" + "\n".join(rows))
        save_artifact("bench_update_slo.txt", "\n".join(rows))
        assert not mismatches, f"gauges drifted from the journal: {mismatches}"
    finally:
        assert server.drain(deadline=5.0)
        thread.join(timeout=5)
