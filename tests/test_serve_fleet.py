"""Tests for the pre-fork fleet: epoch bus, supervisor, agreement.

The headline scenario is the satellite task: >= 4 worker processes
over one packed snapshot blob, a live watcher ingest in the
supervisor, and every worker answering the epoch-bumped version with
zero failed requests mid-swap.  The smaller tests pin the bus protocol
and the supervision contract (crash -> respawn, bounded restart
budget, parent-fd fallback) those fleet runs rest on.
"""

from __future__ import annotations

import datetime
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.list import PublicSuffixList
from repro.psl.packed import PackedHistory, pack_history
from repro.psl.rules import Rule
from repro.serve.fleet import (
    BusEpochs,
    EpochBus,
    FleetConfig,
    FleetSupervisor,
    PublishingRegistry,
    apply_event,
    fork_available,
    reuseport_available,
)
from repro.serve.snapshots import SnapshotRegistry

from tests.test_serve_snapshots import make_store

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the pre-fork fleet requires os.fork"
)


def fetch_json(url: str, *, data: bytes | None = None, timeout: float = 10.0):
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if data else {}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    except (urllib.error.URLError, OSError) as error:
        # Mid-startup (placeholder socket bound, no worker listening yet)
        # or mid-respawn a connect is refused; report it as a non-200 so
        # wait_for() retries instead of erroring the test.
        return 0, {"error": repr(error)}


def wait_for(predicate, *, timeout: float = 15.0, interval: float = 0.05) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# The epoch bus protocol
# ---------------------------------------------------------------------------

class TestEpochBus:
    def test_starts_at_epoch_zero(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        assert bus.current_epoch() == 0
        assert bus.events_since(0) == []

    def test_swap_publish_and_replay(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        assert bus.publish_swap(1) == 1
        assert bus.publish_swap(0) == 2
        events = bus.events_since(0)
        assert [e["epoch"] for e in events] == [1, 2]
        assert [e["index"] for e in events] == [1, 0]
        assert bus.events_since(1) == [events[1]]
        assert bus.events_since(2) == []

    def test_ingest_event_carries_patch_and_fingerprint(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        epoch = bus.publish_ingest(
            index=3,
            date=datetime.date(2023, 1, 1),
            patch="# psl-delta v1\n",
            message="m",
            fingerprint="f",
            activate=True,
        )
        (event,) = bus.events_since(0)
        assert event == {
            "kind": "ingest", "index": 3, "date": "2023-01-01",
            "patch": "# psl-delta v1\n", "message": "m", "fingerprint": "f",
            "activate": True, "epoch": epoch,
        }
        assert sorted(os.listdir(bus.root)) == ["EPOCH", "LOCK", "events.jsonl", "workers"]

    def test_events_since_resumes_from_cursor(self, tmp_path):
        """The read cursor makes polls O(new events); resumed, fresh,
        and behind-the-cursor reads must all agree on the journal."""
        bus = EpochBus(str(tmp_path / "bus"))
        bus.publish_swap(1)
        assert [e["epoch"] for e in bus.events_since(0)] == [1]
        bus.publish_swap(0)
        bus.publish_swap(2)
        # The steady-state poll: resumes past the consumed prefix.
        assert [e["epoch"] for e in bus.events_since(1)] == [2, 3]
        # A fresh bus over the same root (a respawned worker) full-scans.
        assert [e["epoch"] for e in EpochBus(bus.root).events_since(0)] == [1, 2, 3]
        # Asking behind the cursor falls back to a full scan too.
        assert [e["epoch"] for e in bus.events_since(0)] == [1, 2, 3]
        assert bus.events_since(3) == []

    def test_reopening_preserves_epoch(self, tmp_path):
        root = str(tmp_path / "bus")
        EpochBus(root).publish_swap(0)
        assert EpochBus(root).current_epoch() == 1

    def test_heartbeats_roundtrip_and_clear(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        bus.write_heartbeat(0, {"worker": 0, "epoch": 2})
        bus.write_heartbeat(1, {"worker": 1, "epoch": 2})
        beats = bus.read_heartbeats()
        assert [b["worker"] for b in beats] == [0, 1]
        bus.clear_heartbeat(0)
        assert [b["worker"] for b in bus.read_heartbeats()] == [1]
        bus.clear_heartbeat(99)  # unknown worker: no error


def publish_swaps(root: str, count: int) -> list[int]:
    """One publisher process's share of the concurrent-publish test."""
    bus = EpochBus(root)
    return [bus.publish_swap(index) for index in range(count)]


class TestEpochBusCrashRecovery:
    """A publisher killed mid-publish leaves the old state, never a torn one."""

    def journal(self, bus) -> str:
        return os.path.join(bus.root, "events.jsonl")

    def test_killed_after_append_before_epoch_replace(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        bus.publish_swap(1)
        # The killed publish: its line is fsynced, ``EPOCH`` still says 1.
        with open(self.journal(bus), "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"epoch": 2, "index": 5, "kind": "swap"}) + "\n")
        assert bus.current_epoch() == 1
        assert [e["epoch"] for e in EpochBus(bus.root).events_since(0)] == [1]
        assert bus.publish_swap(0) == 2
        events = EpochBus(bus.root).events_since(0)
        assert [(e["epoch"], e["index"]) for e in events] == [(1, 1), (2, 0)]
        assert bus.events_since(1) == [events[1]]

    def test_killed_mid_append(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        bus.publish_swap(1)
        with open(self.journal(bus), "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 2, "ind')  # torn: no newline, no EPOCH bump
        assert EpochBus(bus.root).events_since(0)[-1]["epoch"] == 1
        assert bus.publish_swap(0) == 2
        assert bus.publish_swap(2) == 3
        fresh = EpochBus(bus.root)
        events = fresh.events_since(0)
        assert [(e["epoch"], e["index"]) for e in events] == [(1, 1), (2, 0), (3, 2)]
        assert fresh.events_since(2) == [events[2]]
        with open(self.journal(bus), "rb") as handle:
            assert [json.loads(line)["epoch"] for line in handle] == [1, 2, 3]

    def test_publisher_that_only_publishes_still_cuts_the_tail(self, tmp_path):
        """The supervisor publishes and never reads; its scan resumes
        from the cursor its own publishes leave behind."""
        bus = EpochBus(str(tmp_path / "bus"))
        for index in range(3):
            bus.publish_swap(index)
        with open(self.journal(bus), "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 4, "index": 9, "kind": "swap"}\n{"epo')
        assert bus.publish_swap(7) == 4
        events = EpochBus(bus.root).events_since(0)
        assert [(e["epoch"], e["index"]) for e in events] == [
            (1, 0), (2, 1), (3, 2), (4, 7),
        ]

    def test_concurrent_publishers_keep_epochs_unique(self, tmp_path):
        """More publishing processes than cores: every publish cuts and
        appends under the flock, so the journal stays 1..N in order."""
        import multiprocessing

        root = str(tmp_path / "bus")
        EpochBus(root)
        publishers, count = 2 * (os.cpu_count() or 1) + 1, 20
        with multiprocessing.get_context("spawn").Pool(publishers) as pool:
            results = pool.starmap_async(publish_swaps, [(root, count)] * publishers)
            epochs = [epoch for batch in results.get(timeout=120) for epoch in batch]
        total = publishers * count
        assert sorted(epochs) == list(range(1, total + 1))
        journal = [e["epoch"] for e in EpochBus(root).events_since(0)]
        assert journal == list(range(1, total + 1))

    def test_parent_journal_with_blobs_still_replays(self, tmp_path):
        """A bus written before ingest events dropped their packed blob
        (``blob`` keys, a ``blobs/`` directory) replays from its patch;
        the blob is ignored and the fingerprint pin still holds."""
        truth = make_store()
        delta = RuleDelta(added=frozenset({Rule.parse("dev")}), removed=frozenset())
        fingerprint = PublicSuffixList(truth.rules_at(2) | delta.added).fingerprint
        root = tmp_path / "bus"
        (root / "blobs").mkdir(parents=True)
        (root / "workers").mkdir()
        (root / "blobs" / "2.bin").write_bytes(b"PSLPAK1 from an older bus")
        lines = [
            {"epoch": 1, "index": 0, "kind": "swap"},
            {
                "activate": True, "blob": "2.bin", "date": "2023-06-01", "epoch": 2,
                "fingerprint": fingerprint, "index": 3, "kind": "ingest",
                "message": "adds dev", "patch": delta.to_patch(),
            },
        ]
        (root / "events.jsonl").write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        )
        (root / "EPOCH").write_text("2")
        registry = SnapshotRegistry(make_store())
        epochs = BusEpochs(registry, EpochBus(str(root)))
        assert epochs.catch_up() == 2 and epochs.last_error is None
        assert registry.active.index == 3
        assert registry.active.fingerprint == fingerprint
        assert registry.active.match("app.dev").site == "app.dev"
        # The pin is live: the same event over a diverged history fails.
        lines[1]["fingerprint"] = "0" * 64
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            apply_event(SnapshotRegistry(make_store()), lines[1])


class TestBusEpochs:
    def test_swap_on_one_reaches_the_other(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        store = make_store()
        left = BusEpochs(SnapshotRegistry(store), bus)
        right_registry = SnapshotRegistry(make_store())
        right = BusEpochs(right_registry, bus)
        snapshot, epoch = left.swap(0)
        assert snapshot.index == 0 and epoch == 1
        right.catch_up()
        assert right_registry.active.index == 0
        assert right.epoch() == left.epoch() == 1

    def test_ingest_replays_once_and_activation_is_idempotent(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        truth = make_store()
        # The publisher holds the full history; the follower only v0-v1.
        publisher = PublishingRegistry(truth, bus)
        follower_store = make_store()
        follower = SnapshotRegistry(follower_store)
        epochs = BusEpochs(follower, bus)

        date = datetime.date(2023, 6, 1)
        delta = RuleDelta(added=frozenset({Rule.parse("dev")}), removed=frozenset())
        publisher.ingest(date, delta, message="adds dev")
        assert bus.current_epoch() == 1

        epochs.catch_up()
        assert len(follower_store) == 4
        assert follower.active.index == 3
        # Replaying from scratch over a store that already holds the
        # version must not double-append (the respawned-worker path).
        replayed = BusEpochs(follower, bus)
        replayed.catch_up()
        assert len(follower_store) == 4 and replayed.epoch() == 1

    def test_gap_is_an_error_not_corruption(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        registry = SnapshotRegistry(make_store())
        event = {
            "kind": "ingest",
            "index": 7,  # far beyond the 3-version history
            "date": "2023-01-01",
            "patch": "# psl-delta v1\n",
            "fingerprint": "f",
            "activate": True,
            "epoch": 1,
        }
        with pytest.raises(RuntimeError, match="gap"):
            apply_event(registry, event)
        assert registry.active.index == 2  # untouched

    def test_swap_blocked_by_failed_event_is_an_error_not_a_lie(self, tmp_path):
        """If a pending event cannot apply locally, ``/swap`` must not
        answer 200 with the target version: this worker is still
        serving the old one.  The swap is still published for healthy
        siblings; this worker reports 503 until its apply lands."""
        from repro.serve.core import Reject

        bus = EpochBus(str(tmp_path / "bus"))
        bus.publish_ingest(
            index=3,
            date=datetime.date(2023, 1, 1),
            patch="not a valid patch",  # apply will fail on this
            message="",
            fingerprint="f",
            activate=True,
        )
        registry = SnapshotRegistry(make_store())
        epochs = BusEpochs(registry, bus)
        with pytest.raises(Reject) as excinfo:
            epochs.swap(0)
        assert excinfo.value.status == 503
        assert excinfo.value.body["error"]["kind"] == "swap_not_applied"
        assert registry.active.index == 2  # untouched: still last-good
        assert bus.current_epoch() == 2  # the swap itself was published

    def test_failed_event_leaves_last_good_and_sets_error(self, tmp_path):
        bus = EpochBus(str(tmp_path / "bus"))
        bus.publish_ingest(
            index=3,
            date=datetime.date(2023, 1, 1),
            patch="not a valid patch",
            message="",
            fingerprint="f",
            activate=True,
        )
        registry = SnapshotRegistry(make_store())
        epochs = BusEpochs(registry, bus)
        epochs.catch_up()
        assert registry.active.index == 2  # still on last good
        assert epochs.epoch() == 0  # event not applied
        assert epochs.last_error is not None

    def test_diverged_worker_refuses_the_ingest_and_keeps_last_good(self, tmp_path):
        """The publisher's delta applies cleanly to a worker whose base
        history differs, but yields another list: the event's
        fingerprint pin refuses it, and the worker keeps serving."""
        bus = EpochBus(str(tmp_path / "bus"))
        publisher = PublishingRegistry(make_store(), bus)
        diverged = VersionStore()
        for version in make_store().versions[:2]:
            diverged.commit(version.date, version.delta)
        diverged.commit_rules(datetime.date(2022, 1, 1), added=[Rule.parse("*.kawasaki.jp")])
        registry = SnapshotRegistry(diverged)
        before = registry.active
        epochs = BusEpochs(registry, bus)

        delta = RuleDelta(added=frozenset({Rule.parse("dev")}), removed=frozenset())
        publisher.ingest(datetime.date(2023, 6, 1), delta, message="adds dev")
        assert epochs.catch_up() == 0
        assert "fingerprint mismatch" in epochs.last_error
        assert registry.active is before and len(diverged) == 3
        assert registry.generation == 0
        # Still the diverged v2's own answer: a wildcard, no exception.
        assert registry.active.match("www.city.kawasaki.jp").site == "www.city.kawasaki.jp"


# ---------------------------------------------------------------------------
# The fleet itself (real forked processes, real sockets)
# ---------------------------------------------------------------------------

def packed_blob_on_disk(store, tmp_path) -> PackedHistory:
    """An mmap-loaded packed history: the OS-page-shared fleet diet."""
    path = tmp_path / "history.pslpak"
    path.write_bytes(pack_history(store))
    return PackedHistory.load(str(path))


def start_fleet(store, tmp_path, **config_kwargs) -> FleetSupervisor:
    packed = packed_blob_on_disk(store, tmp_path)
    config = FleetConfig(
        port=0,
        run_dir=str(tmp_path / "run"),
        drain_deadline=5.0,
        **config_kwargs,
    )
    supervisor = FleetSupervisor(store, config=config, packed=packed)
    supervisor.start()
    try:
        assert wait_for(
            lambda: fetch_json(supervisor.url + "/healthz")[0] == 200, timeout=15
        )
    except BaseException:
        # A fleet leaked past a failed startup wait outlives the test
        # process (workers are separate processes holding its stdout
        # pipe open) — always tear it down before reporting.
        supervisor.drain()
        raise
    return supervisor


class TestFleetServing:
    def test_four_workers_one_blob_all_answer(self, tmp_path):
        supervisor = start_fleet(make_store(), tmp_path, workers=4)
        try:
            assert wait_for(lambda: supervisor.view()["reporting"] >= 4)
            for _ in range(40):
                status, body = fetch_json(
                    supervisor.url + "/site?host=www.example.co.uk"
                )
                assert status == 200
                assert body["site"] == "example.co.uk" and body["version"] == 2
            workers = {row["worker"] for row in supervisor.view()["workers"]}
            assert workers == {0, 1, 2, 3}
        finally:
            assert supervisor.drain()

    def test_swap_bumps_every_worker_epoch(self, tmp_path):
        supervisor = start_fleet(make_store(), tmp_path, workers=4)
        try:
            status, body = fetch_json(
                supervisor.url + "/swap?version=0", data=b"{}"
            )
            assert status == 200
            assert body["active"]["index"] == 0 and body["epoch"] == 1

            def agreed() -> bool:
                view = supervisor.view()
                return (
                    view["agreement"]
                    and all(r["active_index"] == 0 for r in view["workers"])
                )

            assert wait_for(agreed), supervisor.view()
            # Every subsequent answer is the swapped version, from
            # whichever worker the kernel picks.
            for _ in range(20):
                _, body = fetch_json(supervisor.url + "/site?host=www.example.co.uk")
                assert body["version"] == 0 and body["site"] == "co.uk"
        finally:
            assert supervisor.drain()

    def test_healthz_reports_fleet_block(self, tmp_path):
        supervisor = start_fleet(make_store(), tmp_path, workers=2)
        try:
            assert wait_for(lambda: supervisor.view()["reporting"] >= 2)
            _, body = fetch_json(supervisor.url + "/healthz")
            fleet = body["fleet"]
            assert fleet["expected_workers"] == 2
            assert fleet["reporting"] >= 2
            assert "worker" in body and body["worker"] in (0, 1)
            _, raw = fetch_json(supervisor.url + "/versions")
        finally:
            assert supervisor.drain()

    @pytest.mark.skipif(
        not reuseport_available(), reason="needs a REUSEPORT platform to compare"
    )
    def test_parent_fd_fallback_serves(self, tmp_path):
        supervisor = start_fleet(
            make_store(), tmp_path, workers=2, reuse_port=False
        )
        try:
            assert not supervisor.reuse_port
            for _ in range(10):
                status, body = fetch_json(supervisor.url + "/site?host=a.example.com")
                assert status == 200 and body["site"] == "example.com"
            assert wait_for(lambda: supervisor.view()["reporting"] >= 2)
        finally:
            assert supervisor.drain()


class TestFleetSupervision:
    def test_crashed_worker_is_respawned(self, tmp_path):
        supervisor = start_fleet(make_store(), tmp_path, workers=2)
        try:
            assert wait_for(lambda: len(supervisor.alive_pids()) == 2)
            victim = supervisor.alive_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_for(
                lambda: victim not in supervisor.alive_pids()
                and len(supervisor.alive_pids()) == 2
            )
            assert supervisor.respawns == 1
            # The respawned worker serves correctly (it replayed the bus).
            for _ in range(10):
                status, _ = fetch_json(supervisor.url + "/site?host=a.example.com")
                assert status == 200
        finally:
            supervisor.drain()

    def test_respawned_worker_catches_up_on_epochs(self, tmp_path):
        supervisor = start_fleet(make_store(), tmp_path, workers=2)
        try:
            fetch_json(supervisor.url + "/swap?version=0", data=b"{}")
            victim = supervisor.alive_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_for(lambda: len(supervisor.alive_pids()) == 2)

            def caught_up() -> bool:
                view = supervisor.view()
                return view["reporting"] >= 2 and view["agreement"] and all(
                    row["active_index"] == 0 for row in view["workers"]
                )

            assert wait_for(caught_up), supervisor.view()
        finally:
            supervisor.drain()

    def test_restart_budget_bounds_crash_loops(self, tmp_path):
        supervisor = start_fleet(
            make_store(), tmp_path, workers=2, restart_budget=1
        )
        try:
            first = supervisor.alive_pids()[0]
            os.kill(first, signal.SIGKILL)
            assert wait_for(lambda: supervisor.respawns == 1)
            assert wait_for(lambda: len(supervisor.alive_pids()) == 2)
            second = supervisor.alive_pids()[0]
            os.kill(second, signal.SIGKILL)
            assert wait_for(lambda: supervisor.restart_budget_exhausted)
            assert len(supervisor.alive_pids()) == 1  # no fork bomb
        finally:
            supervisor.drain()

    def test_drain_stops_every_worker(self, tmp_path):
        supervisor = start_fleet(make_store(), tmp_path, workers=3)
        pids = supervisor.alive_pids()
        assert supervisor.drain()
        assert supervisor.alive_pids() == ()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # every child is truly gone


# ---------------------------------------------------------------------------
# The satellite scenario: live watcher ingest under load, zero failures
# ---------------------------------------------------------------------------

class TestFleetHotSwapDrill:
    def test_watcher_ingest_reaches_all_workers_with_zero_failures(self, tmp_path):
        from repro.serve.cli import prefix_store
        from repro.update.upstream import SyntheticUpstream
        from repro.update.watcher import WatcherConfig

        truth = make_store()
        behind = prefix_store(truth, len(truth) - 1)  # v2 not yet ingested
        # The truth's blob, as ``psl-serve --watch --packed`` passes it:
        # workers serve v0-v1 off it and build the ingested v2.
        packed = PackedHistory.from_buffer(pack_history(truth))
        config = FleetConfig(
            workers=4,
            port=0,
            run_dir=str(tmp_path / "run"),
            drain_deadline=5.0,
        )
        supervisor = FleetSupervisor(
            behind,
            config=config,
            packed=packed,
            upstream=SyntheticUpstream(truth),
            watcher_config=WatcherConfig(poll_interval=0.1),
        )
        supervisor.start()
        failures: list[str] = []
        answered: list[int] = []
        stop = threading.Event()

        def client() -> None:
            while not stop.is_set():
                try:
                    status, body = fetch_json(
                        supervisor.url + "/site?host=www.example.co.uk"
                    )
                except Exception as exc:  # any transport failure counts
                    failures.append(repr(exc))
                    continue
                if status != 200:
                    failures.append(f"status {status}: {body}")
                else:
                    answered.append(body["version"])

        try:
            assert wait_for(
                lambda: fetch_json(supervisor.url + "/healthz")[0] == 200
            )
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()

            def converged() -> bool:
                view = supervisor.view()
                return (
                    view["reporting"] >= 4
                    and view["agreement"]
                    and all(row["active_index"] == 2 for row in view["workers"])
                )

            # The supervisor's watcher ingests v2 and publishes it on
            # the bus; every worker must observe the epoch bump while
            # the clients above hammer the fleet.
            assert wait_for(converged, timeout=30), supervisor.view()
            time.sleep(0.3)  # let clients observe the new version too
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

            assert failures == []  # ZERO failed requests mid-swap
            assert answered, "clients never got an answer"
            # Traffic spanned the swap: early answers on v1, late on v2.
            assert answered[-1] == 2
            assert set(answered) <= {1, 2}
            assert not os.path.exists(tmp_path / "run" / "blobs")
        finally:
            stop.set()
            supervisor.drain()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-x"]))
