"""Differential and resilience tests for the bulk classify engine.

The core contract: :class:`~repro.classify.engine.ClassifyEngine` must
be **bit-identical** to the serial streaming oracles
(:func:`count_sites_streaming` / :func:`count_third_party_streaming`)
for every selected version, for any chunking, worker count, or
kill/resume history.  All tests run against a small packed *subset* of
the synthesized history (packing a dozen versions costs well under a
second; the full blob is for the acceptance run, not the test suite).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from collections import Counter

import pytest

import repro.analysis.boundaries as boundaries
import repro.classify.engine as engine_module
import repro.classify.partials as partials
from repro.analysis.boundaries import run_sweep
from repro.classify.columnar import snapshot_chunks
from repro.classify.engine import ClassifyEngine, select_version_indexes
from repro.classify.partials import ClassifyTask, SpillReader, VersionAxis, VersionDeltas
from repro.history.store import VersionStore
from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.net.hostname import normalize_or_none
from repro.psl.diff import RuleDelta
from repro.psl.intervals import IntervalTrie
from repro.psl.packed import PackedHistory, pack_history
from repro.runtime import ALWAYS, Fault, FaultKind, FaultPlan
from repro.webgraph.archive import Snapshot
from repro.webgraph.records import Page
from repro.webgraph.requestlog import RequestLogConfig, iter_records
from repro.webgraph.sites import group_sites
from repro.webgraph.stream import count_sites_streaming, count_third_party_streaming

TEST_SEED = 20230701

#: Every ~120th version plus the latest — a cheap-to-pack cross-section
#: that still spans years of rule churn.
SUBSET_STEP = 120

#: The small-but-real request log the differential tests classify:
#: six generation blocks, so three chunks at ``blocks_per_task=2``.
LOG = RequestLogConfig(seed=TEST_SEED, records=6144, block_size=1024, malformed_rate=0.01)


@pytest.fixture(scope="module")
def history_store():
    return synthesize_history(SynthesisConfig(seed=TEST_SEED))


@pytest.fixture(scope="module")
def subset(history_store):
    return sorted(set(range(0, len(history_store), SUBSET_STEP)) | {len(history_store) - 1})


@pytest.fixture(scope="module")
def packed_path(history_store, subset, tmp_path_factory):
    path = tmp_path_factory.mktemp("packed") / "packed.bin"
    path.write_bytes(pack_history(history_store, indexes=subset))
    return str(path)


@pytest.fixture(scope="module")
def versions(packed_path):
    return select_version_indexes(len(PackedHistory.load(packed_path)), 5)


@pytest.fixture(scope="module")
def reference(packed_path, versions, tmp_path_factory):
    """The uninterrupted single-worker run every other run must match."""
    engine = ClassifyEngine(
        packed_path,
        version_indexes=versions,
        run_dir=str(tmp_path_factory.mktemp("reference-run")),
    )
    return engine.run_synthetic(LOG, blocks_per_task=2)


class TestSelectVersionIndexes:
    def test_endpoints_always_included(self):
        indexes = select_version_indexes(1000, 7)
        assert indexes[0] == 0 and indexes[-1] == 999
        assert len(indexes) == 7
        assert list(indexes) == sorted(set(indexes))

    def test_requesting_more_than_exist_yields_all(self):
        assert select_version_indexes(5, 100) == (0, 1, 2, 3, 4)

    def test_single_version_is_the_latest(self):
        assert select_version_indexes(42, 1) == (41,)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            select_version_indexes(0, 5)
        with pytest.raises(ValueError):
            select_version_indexes(5, 0)


def misclassified_oracle(history_store, raw_versions, raw_baseline):
    """Per version, hostname occurrences whose ``group_sites`` site
    differs from the baseline version's."""
    occurrences = Counter()
    for record in iter_records(LOG):
        for host in record:
            name = normalize_or_none(host)
            if name is not None:
                occurrences[name] += 1
    hosts = list(occurrences)
    baseline = group_sites(history_store.checkout(raw_baseline), hosts)
    expected = []
    for raw in raw_versions:
        grouping = group_sites(history_store.checkout(raw), hosts)
        expected.append(
            sum(count for host, count in occurrences.items() if grouping[host] != baseline[host])
        )
    return expected


class TestDifferentialOracles:
    """Engine output == serial oracles, version by version."""

    def test_sites_match_count_sites_streaming(self, reference, history_store, subset, versions):
        flattened = [host for record in iter_records(LOG) for host in record]
        for row in reference.rows:
            psl = history_store.checkout(subset[row.version_index])
            assert row.sites == count_sites_streaming(psl, flattened)

    def test_third_party_matches_count_third_party_streaming(
        self, reference, history_store, subset
    ):
        pairs = list(iter_records(LOG))
        for row in reference.rows:
            psl = history_store.checkout(subset[row.version_index])
            assert row.third_party == count_third_party_streaming(psl, pairs)

    def test_misclassified_matches_group_sites_delta(self, reference, history_store, subset):
        """Misclassified hostnames = occurrence-weighted disagreement
        between each version's grouping and the baseline's."""
        expected = misclassified_oracle(
            history_store,
            [subset[row.version_index] for row in reference.rows],
            subset[reference.baseline_index],
        )
        assert [row.misclassified_hostnames for row in reference.rows] == expected

    def test_spills_replay_to_each_versions_site_multiset(
        self, packed_path, versions, history_store, subset, tmp_path
    ):
        """Summed over chunks, the spills' slot 0 plus the deltas up to
        slot ``j`` are the occurrence-weighted site multiset under
        version ``j``, and no delta carries a zero entry."""
        ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=str(tmp_path)
        ).run_synthetic(LOG, blocks_per_task=2)
        spill_dir = tmp_path / "spills"
        readers = [SpillReader(str(spill_dir / name)) for name in sorted(os.listdir(spill_dir))]
        occurrences = Counter(
            name
            for record in iter_records(LOG)
            for name in map(normalize_or_none, record)
            if name is not None
        )
        counter: Counter = Counter()
        try:
            for slot, version_index in enumerate(versions):
                for reader in readers:
                    delta = reader.read(slot)
                    assert slot == 0 or all(delta.values())
                    counter.update(delta)
                grouping = group_sites(history_store.checkout(subset[version_index]), occurrences)
                expected = Counter()
                for host, count in occurrences.items():
                    expected[grouping[host]] += count
                assert +counter == expected
        finally:
            for reader in readers:
                reader.close()

    def test_versions_actually_disagree(self, reference):
        """The synthetic log is version-sensitive by construction — an
        all-zero misclassification column would mean the differential
        tests above prove nothing."""
        assert reference.rows[0].misclassified_hostnames > 0
        assert reference.rows[-1].misclassified_hostnames == 0  # baseline row

    def test_records_and_chunks_accounted(self, reference):
        assert reference.records == 6144
        assert reference.chunks == 3
        assert not reference.degraded
        assert reference.report.resumed == 0


class TestUnselectedBaseline:
    """The baseline is read off the run's own version axis even when it
    is not one of the selected versions."""

    def test_packed_run_measures_against_the_unselected_version(
        self, packed_path, subset, history_store, versions, tmp_path
    ):
        baseline = next(i for i in range(len(subset)) if i not in versions)
        result = ClassifyEngine(
            packed_path, version_indexes=versions, baseline=baseline, run_dir=str(tmp_path)
        ).run_synthetic(LOG, blocks_per_task=2)
        assert result.baseline_index == baseline
        assert [row.version_index for row in result.rows] == list(versions)
        assert [row.misclassified_hostnames for row in result.rows] == misclassified_oracle(
            history_store, [subset[i] for i in versions], subset[baseline]
        )

    @pytest.mark.parametrize("baseline", [0, 700, 1141])
    def test_store_run_matches_group_sites_for_any_baseline(
        self, history_store, baseline, reference, subset, tmp_path
    ):
        """Before, between and after the selected versions; the rows
        other than ``misclassified`` do not depend on the baseline."""
        chosen = [subset[row.version_index] for row in reference.rows]
        selected = tuple(raw for raw in chosen if raw != baseline)
        result = ClassifyEngine(
            history_store, version_indexes=selected, baseline=baseline, run_dir=str(tmp_path)
        ).run_synthetic(LOG, blocks_per_task=2)
        assert [row.misclassified_hostnames for row in result.rows] == misclassified_oracle(
            history_store, selected, baseline
        )
        by_raw = dict(zip(chosen, reference.rows))
        for row in result.rows:
            assert row.sites == by_raw[row.version_index].sites
            assert row.third_party == by_raw[row.version_index].third_party


class TestMergeInvariance:
    """Bit-identical rows for any chunking, worker count, or source."""

    def test_chunking_does_not_change_rows(self, packed_path, versions, reference, tmp_path):
        engine = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=str(tmp_path / "run")
        )
        result = engine.run_synthetic(LOG, blocks_per_task=1)
        assert result.chunks == 6
        assert result.rows == reference.rows

    def test_workers_do_not_change_rows(self, packed_path, versions, reference, tmp_path):
        engine = ClassifyEngine(
            packed_path, version_indexes=versions, workers=2, run_dir=str(tmp_path / "run")
        )
        result = engine.run_synthetic(LOG, blocks_per_task=2)
        assert result.rows == reference.rows

    def test_workers_do_not_change_store_rows(self, history_store, subset, versions, tmp_path):
        raw = [subset[i] for i in versions]
        serial, parallel = (
            ClassifyEngine(
                history_store, version_indexes=raw, workers=workers,
                run_dir=str(tmp_path / f"run-{workers}"),
            ).run_synthetic(LOG, blocks_per_task=2)
            for workers in (1, 2)
        )
        assert serial.chunks == 3
        assert parallel.rows == serial.rows

    def test_store_and_blob_sources_give_identical_rows(
        self, history_store, subset, versions, reference, tmp_path
    ):
        """A store holding exactly the blob's versions classifies to the
        same JSON rows, ``trie_fingerprint`` included: both sources key a
        row by the version's SHA-256 rule-set fingerprint."""
        store = VersionStore()
        previous: frozenset = frozenset()
        for raw in subset:
            rules = history_store.rules_at(raw)
            store.commit(
                history_store.version(raw).date,
                RuleDelta(added=rules - previous, removed=previous - rules),
            )
            previous = rules
        result = ClassifyEngine(
            store, version_indexes=versions, run_dir=str(tmp_path / "run")
        ).run_synthetic(LOG, blocks_per_task=2)
        assert [row.to_json() for row in result.rows] == [
            row.to_json() for row in reference.rows
        ]

    def test_spooled_stream_matches_synthetic(self, packed_path, versions, reference, tmp_path):
        """``run_stream`` (columnarize + spool an arbitrary iterable)
        lands on the same rows even with chunk boundaries that divide
        the stream differently than the generator's blocks."""
        engine = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=str(tmp_path / "run")
        )
        result = engine.run_stream(iter_records(LOG), chunk_records=1500)
        assert result.chunks == 5
        assert result.rows == reference.rows


class TestResume:
    def test_warm_resume_reuses_every_chunk(self, packed_path, versions, reference, tmp_path):
        run_dir = str(tmp_path / "run")
        first = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir
        ).run_synthetic(LOG, blocks_per_task=2)
        second = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=True
        ).run_synthetic(LOG, blocks_per_task=2)
        assert second.report.resumed == first.chunks
        assert second.report.executed == 0
        assert second.rows == first.rows == reference.rows

    def test_without_resume_flag_the_ledger_is_cleared(self, packed_path, versions, tmp_path):
        run_dir = str(tmp_path / "run")
        ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir
        ).run_synthetic(LOG, blocks_per_task=2)
        again = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=False
        ).run_synthetic(LOG, blocks_per_task=2)
        assert again.report.resumed == 0

    def test_different_run_shape_does_not_reuse_checkpoints(
        self, packed_path, versions, tmp_path
    ):
        """The manifest covers the source and the chunking — a resumed
        run can only reuse results it would have computed itself."""
        run_dir = str(tmp_path / "run")
        ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir
        ).run_synthetic(LOG, blocks_per_task=2)
        other_log = RequestLogConfig(
            seed=TEST_SEED, records=6144, block_size=1024, malformed_rate=0.02
        )
        resumed = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=True
        ).run_synthetic(other_log, blocks_per_task=2)
        assert resumed.report.resumed == 0

    def test_corrupted_spill_forces_reexecution(self, packed_path, versions, reference, tmp_path):
        """A checkpoint whose spill fails digest verification is
        recomputed, not trusted — resume can never launder bad bytes
        into the merge."""
        run_dir = str(tmp_path / "run")
        ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir
        ).run_synthetic(LOG, blocks_per_task=2)
        spills = sorted(os.listdir(os.path.join(run_dir, "spills")))
        with open(os.path.join(run_dir, "spills", spills[0]), "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff\xff")
        resumed = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=True
        ).run_synthetic(LOG, blocks_per_task=2)
        assert resumed.report.resumed == 2
        assert resumed.report.executed == 1
        assert resumed.rows == reference.rows


@pytest.fixture
def builds(monkeypatch):
    """Counts of index builds, blob diffs and chunk walks in this process."""
    counts = Counter()

    class CountedTrie(IntervalTrie):
        def __init__(self, *args):
            counts["index"] += 1
            super().__init__(*args)

    from_packed = VersionDeltas.from_packed.__func__

    def counted_from_packed(cls, *args):
        counts["from_packed"] += 1
        return from_packed(cls, *args)

    def counted_chunk(task):
        counts["chunks"] += 1
        return partials.classify_chunk(task)

    monkeypatch.setattr(partials, "IntervalTrie", CountedTrie)
    monkeypatch.setattr(VersionDeltas, "from_packed", classmethod(counted_from_packed))
    monkeypatch.setattr(engine_module, "classify_chunk", counted_chunk)
    return counts


class TestOneIndexPerEngine:
    """The engine builds its version index once; chunks only walk it."""

    def test_runs_on_one_engine_share_one_index(self, builds, packed_path, versions, reference,
                                                tmp_path):
        engine = ClassifyEngine(packed_path, version_indexes=versions, run_dir=str(tmp_path))
        assert builds["index"] == builds["from_packed"] == 0
        first = engine.run_synthetic(LOG, blocks_per_task=2)
        second = engine.run_synthetic(LOG, blocks_per_task=2)
        assert builds["chunks"] == first.chunks + second.chunks == 6
        assert builds["index"] == builds["from_packed"] == 1
        assert first.rows == second.rows == reference.rows

    def test_serial_sweep_over_many_chunks_builds_one_index(self, builds, history_store,
                                                            monkeypatch):
        hosts = sorted({normalize_or_none(host) for record in iter_records(LOG)
                        for host in record} - {None})[:60]
        snapshot = Snapshot(pages=[Page(hosts[0], tuple(hosts[1:5]))],
                            extra_hostnames=set(hosts))
        monkeypatch.setattr(boundaries, "SNAPSHOT_CHUNK_HOSTS", 16)
        result = run_sweep(history_store, snapshot)
        assert builds["chunks"] == 4
        assert builds["index"] == 1
        assert len(result.points) == len(history_store)

    def test_fully_checkpointed_resume_builds_nothing(self, builds, packed_path, versions,
                                                      reference, tmp_path):
        run_dir = str(tmp_path / "run")
        ClassifyEngine(packed_path, version_indexes=versions, run_dir=run_dir).run_synthetic(
            LOG, blocks_per_task=2
        )
        builds.clear()
        resumed = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=True
        ).run_synthetic(LOG, blocks_per_task=2)
        assert resumed.report.resumed == resumed.chunks == 3
        assert builds == Counter()
        assert resumed.rows == reference.rows

    def test_pool_tasks_pickle_the_index_once(self, history_store, subset, monkeypatch):
        axis = VersionAxis.build(VersionDeltas.from_store(history_store, tuple(subset), subset[-1]))
        states = Counter()
        getstate = IntervalTrie.__getstate__

        def counted_getstate(index):
            states["index"] += 1
            return getstate(index)

        monkeypatch.setattr(IntervalTrie, "__getstate__", counted_getstate)
        tasks = [
            ClassifyTask(ref=chunk, axis=axis, spill_dir="spills")
            for chunk in snapshot_chunks(["a.com", "b.net", "c.org"], (), 1)
        ]
        loaded = [pickle.loads(pickle.dumps(task)).axis for task in tasks]
        assert states["index"] == 1
        host = ["com", "example", "www"]
        for other in loaded:
            assert (other.version_indexes, other.baseline_index, other.slots) == (
                axis.version_indexes, axis.baseline_index, axis.slots
            )
            assert other.index.segments(host) == axis.index.segments(host)


class TestDegradedRuns:
    def test_poisoned_chunk_is_quarantined_not_fatal(
        self, packed_path, versions, reference, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        plan = FaultPlan({"classify-1": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        result = ClassifyEngine(
            packed_path,
            version_indexes=versions,
            run_dir=run_dir,
            fault_plan=plan,
        ).run_synthetic(LOG, blocks_per_task=2)
        assert result.degraded
        assert [f.task_id for f in result.failure.quarantined] == ["classify-1"]
        assert result.records < reference.records
        # Surviving chunks still produce a full per-version table.
        assert len(result.rows) == len(reference.rows)
        assert "classify-1" in result.summary()
        assert os.path.exists(os.path.join(run_dir, "checkpoints", "failure_report.json"))

    def test_degraded_run_heals_on_resume(self, packed_path, versions, reference, tmp_path):
        """The runbook scenario: re-run with ``resume=True`` and no
        fault — only the quarantined chunk executes, and the healed
        rows are bit-identical to a clean run."""
        run_dir = str(tmp_path / "run")
        plan = FaultPlan({"classify-1": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, fault_plan=plan
        ).run_synthetic(LOG, blocks_per_task=2)
        healed = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=True
        ).run_synthetic(LOG, blocks_per_task=2)
        assert not healed.degraded
        assert healed.report.resumed == 2
        assert healed.report.executed == 1
        assert healed.rows == reference.rows


class TestEngineValidation:
    def test_empty_version_selection_rejected(self, packed_path, tmp_path):
        with pytest.raises(ValueError):
            ClassifyEngine(packed_path, version_indexes=(), run_dir=str(tmp_path))

    def test_negative_indexes_resolve_like_sequences(self, packed_path, versions, tmp_path):
        total = len(PackedHistory.load(packed_path))
        engine = ClassifyEngine(
            packed_path, version_indexes=[-1, 0], run_dir=str(tmp_path)
        )
        assert engine.version_indexes == (0, total - 1)
        assert engine.baseline_index == total - 1

    def test_bad_blocks_per_task_rejected(self, packed_path, versions, tmp_path):
        engine = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=str(tmp_path)
        )
        with pytest.raises(ValueError):
            engine.run_synthetic(LOG, blocks_per_task=0)


class TestKillAndResume:
    def test_sigkill_mid_run_then_resume_matches_uninterrupted(
        self, packed_path, versions, reference, tmp_path
    ):
        """The acceptance scenario at test scale: a run killed between
        chunks resumes chunk-granularly and ends bit-identical to an
        uninterrupted run.

        The child classifies serially with a 60s hang injected on the
        4th chunk, so the SIGKILL deterministically lands after chunks
        0-2 have checkpointed and before anything later completes.
        """
        run_dir = str(tmp_path / "run")
        script = f"""
import sys
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir, "src")!r})
from repro.classify.engine import ClassifyEngine
from repro.runtime import Fault, FaultKind, FaultPlan
from repro.webgraph.requestlog import RequestLogConfig

log = RequestLogConfig(seed={TEST_SEED}, records=6144, block_size=1024, malformed_rate=0.01)
plan = FaultPlan({{"classify-3": Fault(FaultKind.HANG, attempts=1, hang_seconds=60.0)}})
engine = ClassifyEngine(
    {packed_path!r},
    version_indexes={tuple(versions)!r},
    run_dir={run_dir!r},
    fault_plan=plan,
)
engine.run_synthetic(log, blocks_per_task=1)
"""
        child = subprocess.Popen([sys.executable, "-c", script])
        checkpoint_dir = os.path.join(run_dir, "checkpoints")
        try:
            deadline = time.monotonic() + 120
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

        resumed = ClassifyEngine(
            packed_path, version_indexes=versions, run_dir=run_dir, resume=True
        ).run_synthetic(LOG, blocks_per_task=1)
        assert resumed.rows == reference.rows
        assert resumed.report.resumed >= 3
        assert resumed.report.executed == resumed.chunks - resumed.report.resumed
        assert not resumed.degraded
