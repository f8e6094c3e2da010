"""``psl-update``: the fault-plan soak for the live-update loop.

One command proves the robustness contract end to end, under live
client load, with every injected upstream failure mode at once::

    python -m repro.update.cli --soak        # (= make update-faults)

The soak builds the synthetic history, starts a real
:class:`~repro.serve.http.PslServer` that is deliberately ``--behind``
versions stale, points a :class:`~repro.update.watcher.Watcher` at a
:class:`~repro.update.upstream.SyntheticUpstream` carrying a fault
plan that injects **unreachable**, **hang**, **truncated body**,
**corrupt patch**, and **bad checksum** faults (both transient and
persistent), and then hammers the server from client threads while the
watcher catches up.  It asserts:

* zero client requests fail during live swaps;
* exactly the persistently-poisoned versions are quarantined, and
  every later version still arrives (full-snapshot resync) — the
  final active snapshot matches the upstream tip rule-for-rule;
* the staleness SLO surface (``/healthz`` + ``/metrics``) agrees
  exactly with what the ingest journal implies;
* replaying the same fault plan against a fresh registry reproduces a
  byte-identical journal and lineage;
* the server drains gracefully at the end.

Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.history.store import VersionStore
from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.runtime.checkpoint import atomic_write_bytes
from repro.runtime.executor import RetryPolicy
from repro.runtime.faults import Fault, FaultPlan
from repro.serve.cli import prefix_store
from repro.serve.http import PslServer
from repro.serve.snapshots import SnapshotRegistry
from repro.update.slo import SloPolicy
from repro.update.upstream import (
    ALWAYS,
    HEAD_KEY,
    SyntheticUpstream,
    UpstreamFaultKind,
    full_key,
    patch_key,
)
from repro.update.watcher import IngestJournal, Watcher, WatcherConfig

DEFAULT_SEED = 20230701

#: Hostnames the client threads cycle through (a mix of shapes).
PROBE_HOSTS = (
    "www.example.co.uk",
    "cdn.static.example.com",
    "a.b.city.kawasaki.jp",
    "deep.sub.domain.example.org",
    "tracker.ads.example.net",
    "shop.example.io",
)


def build_fault_plan(pending: list[int], *, retry_attempts: int) -> FaultPlan:
    """Every failure mode across the pending versions, deterministic.

    Transient faults clear within one retry budget; the two persistent
    (``ALWAYS``) faults force quarantine + full-snapshot resync.  The
    head poll itself fails for exactly one whole poll (all
    ``retry_attempts`` exhausted) before recovering.
    """
    faults: dict[str, Fault] = {
        # One entire failed poll: attempts == the per-poll retry budget.
        HEAD_KEY: Fault(UpstreamFaultKind.UNREACHABLE, attempts=retry_attempts),
    }
    if len(pending) >= 8:
        p = pending
        faults[patch_key(p[1])] = Fault(UpstreamFaultKind.UNREACHABLE, attempts=2)
        faults[patch_key(p[2])] = Fault(
            UpstreamFaultKind.HANG, attempts=1, hang_seconds=0.25
        )
        faults[patch_key(p[3])] = Fault(UpstreamFaultKind.TRUNCATE, attempts=1)
        faults[patch_key(p[4])] = Fault(UpstreamFaultKind.CORRUPT_PATCH, attempts=ALWAYS)
        faults[full_key(p[5])] = Fault(UpstreamFaultKind.UNREACHABLE, attempts=1)
        faults[patch_key(p[6])] = Fault(UpstreamFaultKind.BAD_CHECKSUM, attempts=ALWAYS)
        faults[patch_key(p[0])] = Fault(UpstreamFaultKind.BAD_CHECKSUM, attempts=1)
    return FaultPlan(faults=faults)


def run_watcher(
    truth: VersionStore,
    plan: FaultPlan,
    local_count: int,
    polls: int,
    *,
    registry: SnapshotRegistry | None = None,
    today: datetime.date,
    real_sleep: bool,
) -> tuple[Watcher, SyntheticUpstream]:
    """One complete watcher run (the replay harness uses this twice)."""
    if registry is None:
        registry = SnapshotRegistry(prefix_store(truth, local_count))
    sleep = time.sleep if real_sleep else (lambda seconds: None)
    upstream = SyntheticUpstream(truth, plan=plan, client_timeout=0.2, sleep=sleep)
    watcher = Watcher(
        registry,
        upstream,
        config=WatcherConfig(
            poll_interval=0.05,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            slo=SloPolicy(max_age_days=365, max_versions_behind=1, max_failed_polls=3),
        ),
        sleep=sleep,
        today=lambda: today,
    )
    for _ in range(polls):
        watcher.poll_once()
    return watcher, upstream


def _fetch_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def soak(args: argparse.Namespace) -> int:
    failures: list[str] = []

    def check(name: str, condition: bool, detail: str = "") -> None:
        line = f"{'ok' if condition else 'FAIL':4s} {name}"
        if detail and not condition:
            line += f" — {detail}"
        print(line)
        if not condition:
            failures.append(name)

    print("synthesizing history…", flush=True)
    truth = synthesize_history(SynthesisConfig(seed=args.seed))
    behind = max(8, args.behind)
    local_count = len(truth) - behind
    pending = list(range(local_count, len(truth)))
    retry_attempts = 3
    plan = build_fault_plan(pending, retry_attempts=retry_attempts)
    today = truth.latest.date + datetime.timedelta(days=1)

    print(
        f"serving {local_count} versions, upstream head v{len(truth) - 1} "
        f"({behind} behind); fault plan: {len(plan.faults)} injected faults"
    )
    registry = SnapshotRegistry(prefix_store(truth, local_count))
    server = PslServer(("127.0.0.1", 0), registry, max_inflight=64, request_timeout=5.0)
    upstream = SyntheticUpstream(truth, plan=plan, client_timeout=0.2)
    watcher = Watcher(
        registry,
        upstream,
        config=WatcherConfig(
            poll_interval=0.05,
            retry=RetryPolicy(max_attempts=retry_attempts, backoff_base=0.0),
            slo=SloPolicy(max_age_days=365, max_versions_behind=1, max_failed_polls=3),
        ),
        today=lambda: today,
    )
    server.attach_watcher(watcher)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()

    # -- client load: hammer /site while the watcher swaps live ------------
    stop_clients = threading.Event()
    client_errors: list[str] = []
    requests_made = [0] * args.clients
    versions_seen: set[int] = set()
    seen_lock = threading.Lock()

    def client(worker: int) -> None:
        opener = urllib.request.build_opener()
        position = worker
        while not stop_clients.is_set():
            host = PROBE_HOSTS[position % len(PROBE_HOSTS)]
            position += 1
            try:
                with opener.open(f"{server.url}/site?host={host}", timeout=10) as response:
                    body = json.loads(response.read())
                    if response.status != 200:
                        client_errors.append(f"status {response.status}")
                    with seen_lock:
                        versions_seen.add(body["version"])
            except Exception as exc:  # any client-visible failure counts
                client_errors.append(repr(exc))
            requests_made[worker] += 1

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(args.clients)]
    for thread in threads:
        thread.start()

    # -- drive the watcher until it has caught up ---------------------------
    polls = 0
    while polls < 12:
        watcher.poll_once()
        polls += 1
        status = watcher.status()
        if polls >= 2 and status.versions_behind == 0:
            break
        time.sleep(0.05)
    time.sleep(0.2)  # let clients observe the final version
    stop_clients.set()
    for thread in threads:
        thread.join(timeout=5)

    status = watcher.status()
    journal = watcher.journal
    counts = journal.counts()
    total_requests = sum(requests_made)
    quarantined = sorted(watcher.quarantined)
    expected_quarantined = [pending[4], pending[6]]
    expected_resynced = [pending[5], pending[7]]
    expected_accepted = [i for i in pending if i not in quarantined and i not in expected_resynced]

    print(
        f"\n{total_requests} client requests across {args.clients} threads; "
        f"{polls} polls; journal: {counts}"
    )
    check("zero failed client requests", not client_errors, "; ".join(client_errors[:3]))
    check("clients observed live swaps", len(versions_seen) > 1, str(sorted(versions_seen)))
    check(
        "first poll failed (injected head outage)",
        journal.records[0].action == "poll_failed",
        journal.records[0].action,
    )
    check(
        "quarantined exactly the poisoned versions",
        quarantined == expected_quarantined,
        f"{quarantined} != {expected_quarantined}",
    )
    lineage = journal.lineage()
    check(
        "every non-poisoned version ingested in order",
        [index for index, _, _ in lineage] == sorted(expected_accepted + expected_resynced),
        str(lineage),
    )
    check(
        "resync path used after each quarantine",
        [index for index, action, _ in lineage if action == "resynced"] == expected_resynced,
        str(lineage),
    )
    tip_fingerprint = truth.checkout(len(truth) - 1).fingerprint
    check(
        "active snapshot matches upstream tip rule-for-rule",
        registry.active.fingerprint == tip_fingerprint,
        f"{registry.active.fingerprint[:12]} != {tip_fingerprint[:12]}",
    )
    check("caught up: zero versions behind", status.versions_behind == 0, str(status.to_json()))
    check("health state is fresh", status.state.value == "fresh", status.state.value)

    # -- the SLO surface must agree exactly with the journal ----------------
    health_status, health = _fetch_json(server.url + "/healthz")
    update = health.get("update", {})
    check("/healthz carries the update block", health_status == 200 and bool(update), str(health))
    check(
        "/healthz accepted/resynced/quarantined match the journal",
        update.get("accepted") == counts.get("accepted", 0)
        and update.get("resynced") == counts.get("resynced", 0)
        and update.get("quarantined") == len(expected_quarantined),
        str(update),
    )
    with urllib.request.urlopen(server.url + "/metrics", timeout=10) as response:
        metrics_text = response.read().decode()
    expectations = {
        "psl_serve_update_versions_behind 0": True,
        f"psl_serve_update_accepted_total {counts.get('accepted', 0)}": True,
        f"psl_serve_update_resynced_total {counts.get('resynced', 0)}": True,
        f"psl_serve_update_quarantined_total {len(expected_quarantined)}": True,
        f"psl_serve_update_polls_total {polls}": True,
        'psl_serve_update_health{state="fresh"} 1': True,
        'psl_serve_update_health{state="degraded"} 0': True,
    }
    for needle in expectations:
        check(f"/metrics exact: {needle}", needle in metrics_text)
    swaps = len(lineage)
    check(
        "one hot-swap per ingested version",
        f"psl_serve_snapshot_swaps_total {swaps}" in metrics_text,
        f"expected {swaps}",
    )

    # -- deterministic replay ------------------------------------------------
    print("\nreplaying the same fault plan against a fresh registry…")
    replay_watcher, _ = run_watcher(
        truth, plan, local_count, polls, today=today, real_sleep=False
    )
    check(
        "replayed journal is byte-identical",
        replay_watcher.journal.to_json() == journal.to_json(),
        "journals diverge",
    )
    check(
        "replayed lineage is identical",
        replay_watcher.journal.lineage() == lineage,
    )

    # -- graceful drain ------------------------------------------------------
    drained = server.drain(deadline=5.0)
    server_thread.join(timeout=5)
    check("graceful drain completed", drained)
    check("watcher thread stopped", not watcher.running)
    try:
        urllib.request.urlopen(server.url + "/healthz", timeout=2)
        still_up = True
    except Exception:
        still_up = False
    check("server refuses connections after drain", not still_up)

    if args.journal_out:
        record = {"fault_plan": plan.to_json(), "polls": polls, "journal": journal.to_json()}
        payload = json.dumps(record, indent=1, sort_keys=True)
        atomic_write_bytes(args.journal_out, payload.encode("utf-8"))
        print(f"journal + fault plan written to {args.journal_out}")

    if failures:
        print(f"\nsoak FAILED: {len(failures)} check(s): {', '.join(failures)}")
        return 1
    print(
        f"\nsoak ok: {total_requests} live requests with zero failures while "
        f"{len(lineage)} versions hot-swapped, {len(expected_quarantined)} poisoned "
        "versions quarantined, SLO surface exact, replay identical, drain clean"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psl-update",
        description="Fault-plan soak for the live-list update loop.",
    )
    parser.add_argument("--soak", action="store_true", help="run the full soak (default action)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="world seed")
    parser.add_argument(
        "--behind", type=int, default=10,
        help="how many versions behind upstream the server starts (>= 8)",
    )
    parser.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    parser.add_argument(
        "--journal-out", default=None,
        help="write the fault plan + ingest journal as JSON to this path",
    )
    args = parser.parse_args(argv)
    return soak(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
