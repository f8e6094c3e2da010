"""The resilient runtime under injected faults.

Every failure mode the runtime claims to survive is driven here
through the deterministic fault harness (:mod:`repro.runtime.faults`):

* worker crash -> bounded retry -> results identical to fault-free;
* abrupt worker death -> ``BrokenProcessPool`` -> pool rebuild, only
  unfinished tasks resubmitted;
* hang -> per-task timeout -> workers killed, task retried;
* poisoned task -> quarantine after a final serial in-process attempt,
  with its identity in the report instead of a sunk run;
* kill mid-run -> checkpoint/resume re-executes only unfinished chunks
  and matches an uninterrupted run bit for bit.
"""

import datetime
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.boundaries import run_sweep
from repro.classify import ClassifyEngine, snapshot_chunks
from repro.history.store import VersionStore
from repro.psl.rules import Rule
from repro.runtime import (
    ALWAYS,
    AtomicFile,
    CheckpointStore,
    CorruptResult,
    Fault,
    FaultKind,
    FaultPlan,
    MISSING,
    ResilientExecutor,
    RetryPolicy,
    atomic_write_bytes,
)
from tests.test_sweep_engine import series, snapshot_of, sweep_in_chunks

FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _square(task):
    return task * task


def _make_world(versions=10):
    """A small deterministic store + universe for engine-level tests."""
    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2016, 1, 1)
    store.commit_rules(day, added=[Rule.parse("com"), Rule.parse("net")])
    extras = ["example", "pq.com", "*.tt.net", "!a.tt.net", "rs.com", "org", "io", "co"]
    for index in range(versions - 1):
        day += datetime.timedelta(days=7)
        rule = Rule.parse(extras[index % len(extras)])
        if index < len(extras):
            store.commit_rules(day, added=[rule])
        else:
            store.commit_rules(day, removed=[rule])
    hostnames = (
        [f"h{i}.pq.com" for i in range(16)]
        + [f"x{i}.tt.net" for i in range(16)]
        + [f"z{i}.example" for i in range(16)]
    )
    pairs = list(zip(hostnames, hostnames[1:] + hostnames[:1]))
    return store, hostnames, pairs


# -- executor unit tests ------------------------------------------------------


class TestExecutorBasics:
    def test_empty_task_list_short_circuits(self):
        results, report = ResilientExecutor(workers=4, policy=FAST).run(_square, [])
        assert results == []
        assert report.total == 0 and not report.degraded

    def test_serial_map_semantics(self):
        results, report = ResilientExecutor(policy=FAST).run(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        assert report.executed == 3 and report.retried == ()

    def test_rejects_misaligned_or_duplicate_ids(self):
        executor = ResilientExecutor(policy=FAST)
        with pytest.raises(ValueError):
            executor.run(_square, [1, 2], task_ids=["a"])
        with pytest.raises(ValueError):
            executor.run(_square, [1, 2], task_ids=["a", "a"])

    def test_crash_fault_is_retried_serially(self):
        plan = FaultPlan({"1": Fault(FaultKind.CRASH, attempts=2)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [5, 6, 7]
        )
        assert results == [25, 36, 49]
        assert report.retried == ("1",) and not report.degraded

    def test_poisoned_task_is_quarantined_serially(self):
        plan = FaultPlan({"0": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [5, 6, 7]
        )
        assert results == [None, 36, 49]
        assert report.degraded and report.quarantined_ids == ("0",)
        assert report.quarantined[0].attempts == FAST.max_attempts
        assert "injected crash" in report.quarantined[0].error

    def test_corrupt_result_is_rejected_then_retried(self):
        plan = FaultPlan({"2": Fault(FaultKind.CORRUPT, attempts=1)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [1, 2, 3]
        )
        assert results == [1, 4, 9]  # the CorruptResult never reaches the caller
        assert report.retried == ("2",)

    def test_validator_failures_are_retryable(self):
        plan = FaultPlan({"0": Fault(FaultKind.CORRUPT, attempts=ALWAYS)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [4], task_ids=["0"], validate=lambda value: value == 16
        )
        assert results == [None] and report.degraded

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.3)
        assert policy.backoff(1) == 0.0
        assert policy.backoff(2) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)  # capped

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0)
        with pytest.raises(ValueError):
            ResilientExecutor(workers=0)


class TestExecutorPool:
    def test_pool_crash_retry_identical(self):
        plan = FaultPlan({"3": Fault(FaultKind.CRASH, attempts=2)})
        tasks = list(range(8))
        clean, _ = ResilientExecutor(workers=2, policy=FAST).run(_square, tasks)
        faulty, report = ResilientExecutor(workers=2, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        assert faulty == clean == [t * t for t in tasks]
        assert "3" in report.retried and not report.degraded

    def test_broken_pool_is_rebuilt_and_only_unfinished_resubmitted(self):
        plan = FaultPlan({"1": Fault(FaultKind.WORKER_EXIT, attempts=1)})
        tasks = list(range(6))
        results, report = ResilientExecutor(workers=2, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        assert results == [t * t for t in tasks]
        assert report.pool_rebuilds >= 1 and not report.degraded

    def test_always_dying_worker_ends_in_quarantine_not_crash(self):
        plan = FaultPlan({"0": Fault(FaultKind.WORKER_EXIT, attempts=ALWAYS)})
        tasks = list(range(5))
        results, report = ResilientExecutor(workers=2, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        # In-process the fault degrades to a raise, so the final serial
        # attempt fails too and the task is excluded cleanly.
        assert results == [None, 1, 4, 9, 16]
        assert report.quarantined_ids == ("0",)

    def test_hang_is_timed_out_killed_and_retried(self):
        plan = FaultPlan({"2": Fault(FaultKind.HANG, attempts=1, hang_seconds=30.0)})
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, task_timeout=0.4)
        begin = time.monotonic()
        results, report = ResilientExecutor(workers=2, policy=policy, fault_plan=plan).run(
            _square, [1, 2, 3, 4]
        )
        elapsed = time.monotonic() - begin
        assert results == [1, 4, 9, 16]
        assert report.pool_rebuilds >= 1
        assert elapsed < 10.0  # the 30s hang did not run to completion

    def test_innocent_neighbours_survive_a_poisoned_pool_mate(self):
        plan = FaultPlan({"4": Fault(FaultKind.WORKER_EXIT, attempts=ALWAYS)})
        tasks = list(range(9))
        results, report = ResilientExecutor(workers=3, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        assert report.quarantined_ids == ("4",)
        assert [results[i] for i in range(9) if i != 4] == [
            i * i for i in range(9) if i != 4
        ]


class TestAtomicWrite:
    def test_concurrent_writers_to_one_path_never_collide(self, tmp_path):
        # A fixed "{path}.tmp" name let one writer's os.replace move
        # another's temp file away mid-write (FileNotFoundError).
        path = str(tmp_path / "shared.json")
        payloads = [f"writer-{n}".encode() * 64 for n in range(8)]
        errors: list[BaseException] = []

        def write(payload: bytes) -> None:
            try:
                for _ in range(150):
                    atomic_write_bytes(path, payload)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        with open(path, "rb") as handle:
            assert handle.read() in payloads
        assert os.listdir(tmp_path) == ["shared.json"]  # no temp file left

    def test_failed_write_leaves_the_old_file_and_no_temp(self, tmp_path):
        path = str(tmp_path / "data.bin")
        atomic_write_bytes(path, b"old")
        with pytest.raises(RuntimeError):
            with AtomicFile(path) as handle:
                handle.write(b"half of the new")
                raise RuntimeError("killed mid-write")
        with open(path, "rb") as handle:
            assert handle.read() == b"old"
        assert os.listdir(tmp_path) == ["data.bin"]

    def test_clear_removes_stale_temp_files(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("t", 1)
        abandoned = AtomicFile(store._task_path("u"))  # a writer killed mid-write
        abandoned.handle.write(b"partial")
        abandoned.handle.flush()
        store.clear()
        assert os.listdir(tmp_path) == []
        abandoned.handle.close()


class TestCheckpointStore:
    def test_save_load_roundtrip_and_missing(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("host-1", {"sites": 3})
        assert store.load("host-1") == {"sites": 3}
        assert store.load("host-2") is MISSING
        assert store.completed_count() == 1

    def test_reconcile_clears_on_fingerprint_change(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.reconcile("abc")
        store.save("t", 1)
        store.reconcile("abc")
        assert store.load("t") == 1  # same run shape: spills survive
        store.reconcile("def")
        assert store.load("t") is MISSING  # different shape: wiped

    def test_reconcile_without_resume_always_clears(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.reconcile("abc")
        store.save("t", 1)
        store.reconcile("abc", resume=False)
        assert store.load("t") is MISSING

    def test_truncated_spill_reads_as_missing(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("t", [1, 2, 3])
        path = store._task_path("t")
        with open(path, "r+b") as handle:
            handle.truncate(3)
        assert store.load("t") is MISSING

    def test_corrupt_checkpoint_payload_is_not_resumed(self, tmp_path):
        checkpoint = CheckpointStore(str(tmp_path))
        checkpoint.save("0", CorruptResult(task_id="0", attempt=1))
        executor = ResilientExecutor(policy=FAST, checkpoint=checkpoint)
        results, report = executor.run(_square, [7], task_ids=["0"])
        assert results == [49]
        assert report.resumed == 0 and report.executed == 1

    def test_executor_resumes_completed_tasks(self, tmp_path):
        checkpoint = CheckpointStore(str(tmp_path))
        executor = ResilientExecutor(policy=FAST, checkpoint=checkpoint)
        first, report_first = executor.run(_square, [2, 3], task_ids=["a", "b"])
        assert report_first.executed == 2
        again, report_again = ResilientExecutor(
            policy=FAST,
            checkpoint=CheckpointStore(str(tmp_path)),
            # A plan that would poison both tasks proves they never re-run.
            fault_plan=FaultPlan(
                {
                    "a": Fault(FaultKind.CRASH, attempts=ALWAYS),
                    "b": Fault(FaultKind.CRASH, attempts=ALWAYS),
                }
            ),
        ).run(_square, [2, 3], task_ids=["a", "b"])
        assert again == first == [4, 9]
        assert report_again.resumed == 2 and report_again.executed == 0

    def test_only_executed_tasks_are_read(self, tmp_path):
        """A resumed task is never read from ``tasks``, so a lazily made
        task sequence makes only what runs."""
        checkpoint = CheckpointStore(str(tmp_path))
        ResilientExecutor(policy=FAST, checkpoint=checkpoint).run(_square, [2], task_ids=["a"])
        read: list[int] = []

        class Recorded(list):
            def __getitem__(self, position):
                read.append(position)
                return super().__getitem__(position)

        results, report = ResilientExecutor(policy=FAST, checkpoint=checkpoint).run(
            _square, Recorded([2, 3]), task_ids=["a", "b"]
        )
        assert results == [4, 9]
        assert report.resumed == 1
        assert read == [1]


# -- engine-level resilience --------------------------------------------------
#
# The Figure 5-7 sweep's resilience is the classify engine's: these run
# the engine over a version store and eight-host snapshot chunks
# (task ids classify-0 .. classify-5).


class TestEngineResilience:
    def test_crashing_worker_sweep_identical_to_serial(self, tmp_path):
        store, hostnames, pairs = _make_world()
        serial = run_sweep(store, snapshot_of(hostnames, pairs))
        plan = FaultPlan(
            {
                "classify-0": Fault(FaultKind.CRASH, attempts=1),
                "classify-1": Fault(FaultKind.WORKER_EXIT, attempts=1),
            }
        )
        result = sweep_in_chunks(
            store, hostnames, pairs, 8, str(tmp_path),
            workers=2, fault_plan=plan, policy=FAST,
        )
        assert series(result) == series(serial)
        assert not result.degraded and result.report.pool_rebuilds >= 1

    def test_poisoned_chunk_is_quarantined_and_enumerated(self, tmp_path):
        store, hostnames, pairs = _make_world()
        plan = FaultPlan({"classify-1": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        degraded = sweep_in_chunks(
            store, hostnames, pairs, 8, str(tmp_path / "degraded"),
            workers=2, fault_plan=plan, policy=FAST,
        )
        assert degraded.degraded
        assert [failure.task_id for failure in degraded.failure.quarantined] == ["classify-1"]
        assert "classify-1" in degraded.failure.summary()
        # The degraded series equals a clean run over exactly the
        # surviving chunks: the quarantined chunk's 8 hostnames and the
        # request pairs riding with them are gone, nothing else.
        surviving = [
            chunk
            for chunk in snapshot_chunks(hostnames, pairs, 8)
            if chunk.task_id != "classify-1"
        ]
        expected = ClassifyEngine(
            store, version_indexes=range(len(store)), run_dir=str(tmp_path / "clean")
        ).run_chunks(surviving)
        assert series(degraded) == series(expected)
        assert degraded.rows[0].sites.hostnames == len(hostnames) - 8

    def test_quarantine_report_serializes(self, tmp_path):
        store, hostnames, pairs = _make_world()
        plan = FaultPlan({"classify-0": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        sweep = run_sweep(
            store, snapshot_of(hostnames, pairs),
            checkpoint_dir=str(tmp_path), fault_plan=plan,
        )
        payload = sweep.failure_report.to_json()
        assert payload["degraded"] is True
        assert payload["quarantined"][0]["task_id"] == "classify-0"
        assert os.path.exists(tmp_path / "checkpoints" / "failure_report.json")

    def test_resume_reexecutes_only_unfinished_chunks(self, tmp_path):
        store, hostnames, pairs = _make_world()
        serial = run_sweep(store, snapshot_of(hostnames, pairs))
        poison = FaultPlan({"classify-2": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        first = sweep_in_chunks(
            store, hostnames, pairs, 8, str(tmp_path), fault_plan=poison, policy=FAST
        )
        assert first.degraded

        resumed = sweep_in_chunks(store, hostnames, pairs, 8, str(tmp_path), resume=True)
        assert series(resumed) == series(serial)
        assert resumed.report.executed == 1  # only the formerly-poisoned chunk
        assert resumed.report.resumed == resumed.chunks - 1

    def test_checkpoints_from_another_sweep_shape_are_not_reused(self, tmp_path):
        store, hostnames, pairs = _make_world()
        sweep_in_chunks(store, hostnames, pairs, 8, str(tmp_path))
        other = sweep_in_chunks(store, hostnames, pairs, 16, str(tmp_path), resume=True)
        assert other.report.resumed == 0

    def test_run_sweep_resumes_from_its_checkpoint_dir(self, tmp_path):
        store, hostnames, pairs = _make_world()
        snapshot = snapshot_of(hostnames, pairs)
        poison = FaultPlan({"classify-0": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        first = run_sweep(store, snapshot, checkpoint_dir=str(tmp_path), fault_plan=poison)
        assert first.failure_report.degraded
        healed = run_sweep(store, snapshot, checkpoint_dir=str(tmp_path))
        assert healed.failure_report is None
        assert healed == run_sweep(store, snapshot)


class TestKillAndResume:
    def test_sigkill_mid_sweep_then_resume_matches_uninterrupted(self, tmp_path):
        """The acceptance scenario: a sweep killed mid-run resumes from
        its checkpoints and ends bit-identical to an uninterrupted run.

        The child sweeps serially with a 60s hang injected on the 4th
        chunk, so the kill deterministically lands after chunks 0-2
        have spilled and before anything later completes.
        """
        store, hostnames, pairs = _make_world()
        serial = run_sweep(store, snapshot_of(hostnames, pairs))
        run_dir = str(tmp_path / "run")
        checkpoint_dir = os.path.join(run_dir, "checkpoints")
        script = f"""
import sys
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir, "src")!r})
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir)!r})
from tests.test_runtime_resilience import _make_world
from tests.test_sweep_engine import sweep_in_chunks
from repro.runtime import Fault, FaultKind, FaultPlan

store, hostnames, pairs = _make_world()
plan = FaultPlan({{"classify-3": Fault(FaultKind.HANG, attempts=1, hang_seconds=60.0)}})
sweep_in_chunks(store, hostnames, pairs, 8, {run_dir!r}, fault_plan=plan)
"""
        child = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60
            spilled = 0
            while time.monotonic() < deadline:
                if os.path.isdir(checkpoint_dir):
                    spilled = sum(
                        1 for name in os.listdir(checkpoint_dir) if name.endswith(".pkl")
                    )
                    if spilled >= 3:
                        break
                time.sleep(0.05)
            assert spilled >= 3, "child never reached the hang point"
        finally:
            child.kill()
            child.wait()

        resumed = sweep_in_chunks(store, hostnames, pairs, 8, run_dir, resume=True)
        assert series(resumed) == series(serial)
        assert resumed.report.resumed >= 3
        assert resumed.report.executed == resumed.chunks - resumed.report.resumed
        assert not resumed.degraded

    def test_temp_files_of_killed_writes_are_reclaimed_on_resume(self, tmp_path):
        """A child killed mid spill write and mid checkpoint write leaves
        temp files; the next run in that directory removes them."""
        store, hostnames, pairs = _make_world()
        run_dir = str(tmp_path / "run")
        sweep_in_chunks(store, hostnames, pairs, 8, run_dir)
        spill_dir = os.path.join(run_dir, "spills")
        checkpoint_dir = os.path.join(run_dir, "checkpoints")
        script = f"""
import os, signal, sys
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir, "src")!r})
from repro.classify.partials import SpillWriter
from repro.runtime import AtomicFile

spill = SpillWriter(os.path.join({spill_dir!r}, "classify-0.spill"), 3)
spill.add({{"a.com": 1}})
checkpoint = AtomicFile(os.path.join({checkpoint_dir!r}, "classify-0.pkl"))
checkpoint.handle.write(b"partial")
for handle in (spill._handle, checkpoint.handle):
    handle.flush()
os.kill(os.getpid(), signal.SIGKILL)
"""
        child = subprocess.run([sys.executable, "-c", script], timeout=60)
        assert child.returncode == -signal.SIGKILL

        def temps():
            return [
                name
                for directory in (spill_dir, checkpoint_dir)
                for name in os.listdir(directory)
                if name.endswith(".tmp")
            ]

        assert len(temps()) == 2
        resumed = sweep_in_chunks(store, hostnames, pairs, 8, run_dir, resume=True)
        assert resumed.report.resumed == resumed.chunks  # the ledger survived
        assert temps() == []
