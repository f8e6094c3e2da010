"""Sparse version slots, zero-length spill entries, the collector pause
and the dict-cut snapshot chunker.

* Spill compatibility: a spill whose empty slots hold a pickled ``{}``
  (the layout every spill had before empty entries became zero-length)
  merges, and resumes, to the same rows as a new spill; a new spill's
  empty slots take zero bytes and read ``{}``; out-of-range reads and
  damaged files still fail.
* The cyclic collector: ``classify_chunk`` and ``run_sweep`` leave
  ``gc.isenabled()`` as they found it on every exit path, and pool rows
  equal serial rows.
* ``snapshot_chunks`` against the loop it replaced, kept here as the
  oracle, over generated universes.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import pickle
import string
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.boundaries import run_sweep
from repro.classify.columnar import snapshot_chunks
from repro.classify.engine import ClassifyEngine
from repro.classify.partials import (
    ClassifyTask,
    SpillReader,
    SpillRef,
    SpillWriter,
    VersionAxis,
    VersionDeltas,
    classify_chunk,
)
from repro.runtime import CheckpointStore, Fault, FaultKind, FaultPlan, atomic_write_bytes

from test_classify_pins import HOSTS_PER_CHUNK, pinned_world, snapshot_of


@pytest.fixture(scope="module")
def world():
    return pinned_world()


def engine_for(store, run_dir, **options) -> ClassifyEngine:
    return ClassifyEngine(store, version_indexes=range(len(store)), run_dir=str(run_dir), **options)


def axis_for(store) -> VersionAxis:
    slots = tuple(range(len(store)))
    return VersionAxis.build(VersionDeltas.from_store(store, slots, slots[-1]))


# -- spill layout -------------------------------------------------------------


def write_pickled_empties(path: str) -> SpillRef:
    """Rewrite a spill with a pickled counter in every slot, ``{}`` included."""
    with SpillReader(path) as reader:
        entries = [
            pickle.dumps(reader.read(slot), protocol=pickle.HIGHEST_PROTOCOL)
            for slot in range(reader.versions)
        ]
    offsets = [8 + 4 + 8 * (len(entries) + 1)]
    for entry in entries:
        offsets.append(offsets[-1] + len(entry))
    payload = b"".join(
        [struct.pack("<8sI", b"PSLCLSP1", len(entries))]
        + [struct.pack("<Q", offset) for offset in offsets]
        + entries
    )
    atomic_write_bytes(path, payload)
    return SpillRef(path=path, nbytes=len(payload), digest=hashlib.sha256(payload).hexdigest())


class TestSpillLayout:
    def test_empty_slots_take_zero_bytes_and_read_empty(self, tmp_path):
        path = str(tmp_path / "s.spill")
        writer = SpillWriter(path, 6)
        writer.add({"a.com": 2, "b.com": 1})
        writer.add({"a.com": -1, "c.com": 1}, 3)
        writer.add({}, 4)
        ref = writer.finish()
        entries = [{"a.com": 2, "b.com": 1}, {"a.com": -1, "c.com": 1}]
        pickled = sum(len(pickle.dumps(e, protocol=pickle.HIGHEST_PROTOCOL)) for e in entries)
        assert ref.nbytes == 8 + 4 + 8 * 7 + pickled == os.path.getsize(path)
        with SpillReader(path) as reader:
            assert reader.filled == (0, 3)
            assert [reader.read(slot) for slot in range(6)] == [
                entries[0], {}, {}, entries[1], {}, {}
            ]
            for slot in (-1, 6):
                with pytest.raises(IndexError):
                    reader.read(slot)

    def test_slots_are_written_in_ascending_order(self, tmp_path):
        writer = SpillWriter(str(tmp_path / "s.spill"), 3)
        writer.add({"a.com": 1}, 1)
        for slot in (0, 1, 3):
            with pytest.raises(ValueError):
                writer.add({"a.com": 1}, slot)
        writer.abort()

    def test_damaged_spill_fails_verify(self, tmp_path):
        path = str(tmp_path / "s.spill")
        writer = SpillWriter(path, 4)
        writer.add({"a.com": 1})
        writer.add({"a.com": -1, "b.com": 1}, 2)
        ref = writer.finish()
        assert ref.verify()
        original = open(path, "rb").read()
        atomic_write_bytes(path, original[:-3])
        assert not ref.verify()
        flipped = bytearray(original)
        flipped[len(flipped) // 2] ^= 0x01
        atomic_write_bytes(path, bytes(flipped))
        assert not ref.verify()

    def test_worker_spills_only_slots_with_flips(self, world, tmp_path):
        store, hostnames, pairs = world
        chunk = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)[0]
        partial = classify_chunk(ClassifyTask(ref=chunk, axis=axis_for(store), spill_dir=str(tmp_path)))
        with SpillReader(partial.spill.path) as reader:
            assert 0 in reader.filled and len(reader.filled) < reader.versions
            empty = [slot for slot in range(reader.versions) if slot not in reader.filled]
            assert all(reader.read(slot) == {} for slot in empty)
        # The tallies carry across the empty slots.
        for slot in empty:
            assert partial.third_party[slot] == partial.third_party[slot - 1]
            assert partial.misclassified[slot] == partial.misclassified[slot - 1]

    def test_pickled_empties_merge_to_the_same_rows(self, world, tmp_path):
        store, hostnames, pairs = world
        chunks = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)
        engine = engine_for(store, tmp_path / "run")
        new = engine.run_chunks(chunks)
        spills = tmp_path / "run" / "spills"
        sizes = {name: os.path.getsize(spills / name) for name in os.listdir(spills)}
        old_partials = [
            _with_spill(partial, write_pickled_empties(partial.spill.path))
            for partial in _partials(tmp_path / "run", len(chunks))
        ]
        assert all(os.path.getsize(spills / name) > size for name, size in sizes.items())
        assert engine._merge(old_partials) == new.rows

    def test_resume_over_pickled_empties_reuses_every_chunk(self, world, tmp_path):
        store, hostnames, pairs = world
        chunks = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)
        run_dir = tmp_path / "run"
        first = engine_for(store, run_dir).run_chunks(chunks)
        ledger = CheckpointStore(str(run_dir / "checkpoints"))
        for partial in _partials(run_dir, len(chunks)):
            ledger.save(
                f"classify-{partial.index}",
                _with_spill(partial, write_pickled_empties(partial.spill.path)),
            )
        resumed = engine_for(store, run_dir, resume=True).run_chunks(chunks)
        assert resumed.report.resumed == len(chunks) and resumed.report.executed == 0
        assert resumed.rows == first.rows


def _partials(run_dir, chunks: int):
    ledger = CheckpointStore(str(run_dir / "checkpoints"))
    return [ledger.load(f"classify-{index}") for index in range(chunks)]


def _with_spill(partial, spill: SpillRef):
    return dataclasses.replace(partial, spill=spill)


# -- the collector ------------------------------------------------------------


class _Observed:
    """A chunk reference that records the collector state when loaded."""

    def __init__(self, chunk, fail: bool = False) -> None:
        self.chunk = chunk
        self.fail = fail
        self.enabled_during: bool | None = None
        self.task_id = chunk.task_id

    def load(self):
        self.enabled_during = gc.isenabled()
        if self.fail:
            raise RuntimeError("load failed")
        return self.chunk


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


class TestCollectorState:
    def test_paused_while_running_and_restored_on_return(self, world, tmp_path, collector_on):
        store, hostnames, pairs = world
        ref = _Observed(snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)[0])
        classify_chunk(ClassifyTask(ref=ref, axis=axis_for(store), spill_dir=str(tmp_path)))
        assert ref.enabled_during is False
        assert gc.isenabled()

    def test_restored_when_the_chunk_raises(self, world, tmp_path, collector_on):
        store, hostnames, pairs = world
        axis = axis_for(store)
        chunk = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)[0]
        with pytest.raises(RuntimeError):
            classify_chunk(ClassifyTask(ref=_Observed(chunk, fail=True), axis=axis,
                                        spill_dir=str(tmp_path)))
        assert gc.isenabled()
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        with pytest.raises(OSError):
            classify_chunk(ClassifyTask(ref=chunk, axis=axis, spill_dir=str(blocker / "spills")))
        assert gc.isenabled()

    def test_restored_after_a_fault_plan_failure(self, world, tmp_path, collector_on):
        store, hostnames, pairs = world
        chunks = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)
        plan = FaultPlan({"classify-1": Fault(FaultKind.CRASH)})
        result = engine_for(store, tmp_path, fault_plan=plan).run_chunks(chunks)
        assert result.report.retried and not result.degraded
        assert gc.isenabled()

    def test_stays_off_when_off_on_entry(self, world, tmp_path, collector_on):
        store, hostnames, pairs = world
        chunk = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)[0]
        gc.disable()
        classify_chunk(ClassifyTask(ref=chunk, axis=axis_for(store), spill_dir=str(tmp_path)))
        assert not gc.isenabled()
        with pytest.raises(OSError):
            blocker = tmp_path / "file"
            blocker.write_bytes(b"")
            classify_chunk(ClassifyTask(ref=chunk, axis=axis_for(store),
                                        spill_dir=str(blocker / "x")))
        assert not gc.isenabled()

    def test_run_sweep_paused_throughout_and_restored(self, world, tmp_path, collector_on):
        store, hostnames, pairs = world
        snapshot = snapshot_of(hostnames, pairs)
        seen = []

        class Observed:
            hostnames = snapshot.hostnames

            def iter_request_pairs(self):
                seen.append(gc.isenabled())
                return snapshot.iter_request_pairs()

        run_sweep(store, Observed())
        assert seen == [False] and gc.isenabled()

        class Unreadable(Observed):
            def iter_request_pairs(self):
                raise OSError("snapshot unreadable")

        with pytest.raises(OSError):
            run_sweep(store, Unreadable())
        assert gc.isenabled()
        gc.disable()
        run_sweep(store, snapshot, workers=2)
        assert not gc.isenabled()

    def test_pool_rows_equal_serial_rows(self, world, tmp_path, collector_on):
        store, hostnames, pairs = world
        chunks = snapshot_chunks(hostnames, pairs, HOSTS_PER_CHUNK)
        serial = engine_for(store, tmp_path / "serial").run_chunks(chunks)
        pooled = engine_for(store, tmp_path / "pool", workers=2).run_chunks(chunks)
        assert pooled.rows == serial.rows
        assert gc.isenabled()


# -- the chunk cut vs. the loop it replaced -----------------------------------


def looped_snapshot_chunks(hostnames, pairs, hosts_per_chunk):
    """The per-host loop ``snapshot_chunks`` used to be: the oracle."""
    if hosts_per_chunk < 1:
        raise ValueError("hosts_per_chunk must be positive")
    slot: dict[str, tuple[int, int]] = {}
    hosts: list[list[str]] = []
    for host in hostnames:
        if host not in slot:
            if not hosts or len(hosts[-1]) == hosts_per_chunk:
                hosts.append([])
            slot[host] = (len(hosts) - 1, len(hosts[-1]))
            hosts[-1].append(host)
    owned = [len(chunk_hosts) for chunk_hosts in hosts]
    foreign: list[dict[str, int]] = [{} for _ in hosts]
    pages = [array("I") for _ in hosts]
    requests = [array("I") for _ in hosts]
    for page, request in pairs:
        try:
            chunk, page_index = slot[page]
        except KeyError:
            raise ValueError(f"page host {page!r} is not in the hostname universe") from None
        owner, request_index = slot.get(request, (-1, 0))
        if owner != chunk:
            request_index = foreign[chunk].get(request, -1)
            if request_index < 0:
                request_index = foreign[chunk][request] = len(hosts[chunk])
                hosts[chunk].append(request)
        pages[chunk].append(page_index)
        requests[chunk].append(request_index)
    return [
        (index, tuple(chunk_hosts), list(array("Q", [1] * owned[index] + [0] * len(foreign[index]))),
         list(pages[index]), list(requests[index]))
        for index, chunk_hosts in enumerate(hosts)
    ]


def _shape(chunks):
    return [
        (c.index, c.hosts, list(c.occurrences), list(c.pages), list(c.requests))
        for c in chunks
    ]


names = st.text(alphabet=string.ascii_lowercase[:5], min_size=1, max_size=3)


@st.composite
def universes(draw):
    hostnames = draw(st.lists(names, min_size=1, max_size=30))  # repeats allowed
    outside = draw(st.lists(names.map(lambda name: "x." + name), max_size=5))
    requestable = hostnames + outside
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(hostnames), st.sampled_from(requestable)), max_size=40
    ))
    hosts_per_chunk = draw(st.integers(min_value=1, max_value=len(set(hostnames))))
    return hostnames, pairs, hosts_per_chunk


class TestChunkCut:
    @settings(max_examples=200, deadline=None)
    @given(universes())
    def test_matches_the_per_host_loop(self, universe):
        hostnames, pairs, hosts_per_chunk = universe
        cut = snapshot_chunks(iter(hostnames), iter(pairs), hosts_per_chunk)
        assert _shape(cut) == looped_snapshot_chunks(hostnames, pairs, hosts_per_chunk)
        assert all(c.skipped_hosts == c.skipped_pairs == 0 for c in cut)

    @settings(max_examples=50, deadline=None)
    @given(universes())
    def test_unknown_page_host_raises_the_same_error(self, universe):
        hostnames, pairs, hosts_per_chunk = universe
        pairs = pairs + [("unknown.page", hostnames[0])]
        with pytest.raises(ValueError) as new:
            snapshot_chunks(hostnames, pairs, hosts_per_chunk)
        with pytest.raises(ValueError) as old:
            looped_snapshot_chunks(hostnames, pairs, hosts_per_chunk)
        assert str(new.value) == str(old.value)
