"""The packed zero-copy snapshot path through the serving layer.

``tests/test_psl_packed.py`` proves the encoding itself is
bit-faithful; this file proves the *serving* integration is: a
:class:`~repro.serve.snapshots.SnapshotRegistry` over a
:class:`~repro.psl.packed.PackedHistory` must answer exactly like the
dict-trie registry, account for its memory honestly, expose that
accounting on ``/metrics``, and never let the shared buffer be torn
down while snapshots still view it.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.psl.packed import (
    PackedBufferInUseError,
    PackedFormatError,
    PackedHistory,
    pack_history,
)
from repro.serve.engine import QueryEngine
from repro.serve.http import PslServer
from repro.serve.snapshots import SnapshotRegistry

from tests.test_serve_snapshots import make_registry, make_store

HOSTS = [
    "www.example.co.uk",
    "example.co.uk",
    "co.uk",
    "alice.github.io",
    "github.io",
    "deep.a.b.example.com",
    "foo.bar.kawasaki.jp",
    "city.kawasaki.jp",
    "sub.city.kawasaki.jp",
    "unlisted.zz",
]


@pytest.fixture()
def store():
    return make_store()


class TestPackedParity:
    def test_registry_answers_match_dict_registry(self, store):
        dict_registry = make_registry(store, "dict")
        packed_registry = make_registry(store, "packed")
        for index in range(len(store)):
            reference = dict_registry.resident(index)
            candidate = packed_registry.resident(index)
            assert candidate.packed is True
            assert candidate.fingerprint == reference.fingerprint
            for host in HOSTS:
                assert candidate.match(host) == reference.match(host), (index, host)

    def test_describe_marks_the_backend(self, store):
        packed_registry = make_registry(store, "packed")
        assert packed_registry.active.describe()["packed"] is True
        dict_registry = make_registry(store, "dict")
        assert dict_registry.active.describe()["packed"] is False

    def test_engine_parity_without_cache(self, store):
        """Both backends answer through the same uncached engine path."""
        dict_engine = QueryEngine(make_registry(store, "dict"))
        packed_engine = QueryEngine(make_registry(store, "packed"))
        for host in HOSTS:
            expected = dict_engine.site(host)
            got = packed_engine.site(host)
            assert got.site == expected.site
            assert got.public_suffix == expected.public_suffix
            assert got.registrable_domain == expected.registrable_domain
        for old in range(len(store)):
            for host in HOSTS:
                left = dict_engine.compare(host, old)
                right = packed_engine.compare(host, old)
                assert right.diverges == left.diverges, (old, host)
                assert right.old.site == left.old.site


class TestNoCacheMode:
    def test_batch_answers_are_never_cached(self, store):
        engine = QueryEngine(make_registry(store, "packed"))
        answer = engine.batch(HOSTS * 2)
        rows = [item.to_json() for item in answer.answers]
        assert all("cached" not in row for row in rows)
        assert rows[: len(HOSTS)] == rows[len(HOSTS):]


class TestMemoryAccounting:
    def test_packed_registry_accounts_slices_plus_shared_once(self, store):
        registry = make_registry(store, "packed", resident_capacity=len(store))
        for index in range(len(store)):
            registry.resident(index)
        packed = registry.packed_history
        accounting = registry.memory_accounting()
        slices = sum(packed.version_bytes(i) for i in range(len(store)))
        assert accounting.shared_bytes == packed.shared_bytes
        assert accounting.packed_bytes == slices + packed.shared_bytes
        assert accounting.dict_bytes == 0
        assert accounting.dict_bytes_estimate > 0
        assert len(accounting.versions) == len(store)
        for row in accounting.versions:
            assert row["packed"] is True
            assert row["packed_mmap_shared"] is False  # in-heap buffer
            assert row["resident_bytes"] == packed.version_bytes(row["index"])
            assert row["dict_bytes_estimate"] > row["resident_bytes"]

    def test_dict_registry_accounts_measured_tries(self, store):
        registry = make_registry(store, "dict", resident_capacity=len(store))
        for index in range(len(store)):
            registry.resident(index)
        accounting = registry.memory_accounting()
        assert accounting.packed_bytes == 0
        assert accounting.shared_bytes == 0
        assert accounting.dict_bytes > 0
        assert accounting.dict_bytes == accounting.dict_bytes_estimate
        assert all(row["packed"] is False for row in accounting.versions)

    def test_eviction_shrinks_the_packed_total(self, store):
        registry = make_registry(store, "packed", resident_capacity=1)
        registry.resident(0)  # evicted immediately: capacity 1, active pinned
        accounting = registry.memory_accounting()
        resident = [row["index"] for row in accounting.versions]
        assert len(resident) == 1 and resident[0] == registry.active.index


class TestBufferLifecycle:
    """Safe-unmap: only mmap-backed buffers can refuse a close.

    An in-heap ``bytes`` buffer releases safely under live views (the
    views themselves keep the bytes object alive), so the refusal
    contract is exercised through :meth:`PackedHistory.load`.
    """

    @pytest.fixture()
    def mapped(self, store, tmp_path):
        path = tmp_path / "history.pslpak"
        path.write_bytes(pack_history(store))
        return PackedHistory.load(path)

    def test_close_refused_while_registry_views_live(self, store, mapped):
        registry = SnapshotRegistry(store, packed=mapped)
        assert mapped.mmap_shared is True
        with pytest.raises(PackedBufferInUseError):
            mapped.close()
        # The refusal must leave the history fully usable.
        snapshot = registry.resident(0)
        assert snapshot.match("www.example.co.uk").site == "co.uk"

    def test_close_succeeds_after_registry_dropped(self, store, mapped):
        registry = SnapshotRegistry(store, packed=mapped)
        registry.resident(0)
        del registry
        gc.collect()
        mapped.close()
        with pytest.raises(PackedFormatError, match="closed"):
            mapped.trie(0)

    def test_in_heap_buffer_close_is_always_safe(self, store):
        packed = PackedHistory.from_buffer(pack_history(store))
        registry = SnapshotRegistry(store, packed=packed)
        snapshot = registry.active
        packed.close()  # no mmap to refuse; outstanding views stay valid
        assert snapshot.match("www.example.co.uk").site == "example.co.uk"
        with pytest.raises(PackedFormatError, match="closed"):
            packed.trie(0)


class TestMetricsExposure:
    def _scrape(self, registry) -> str:
        server = PslServer(("127.0.0.1", 0), registry, max_inflight=8)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            import urllib.request

            with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
                return resp.read().decode()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @staticmethod
    def _value(text: str, name: str) -> float:
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.rsplit(" ", 1)[1])
        raise AssertionError(f"{name} not exposed:\n{text}")

    def test_packed_registry_exports_memory_gauges(self, store):
        registry = make_registry(store, "packed")
        text = self._scrape(registry)
        packed = registry.packed_history
        assert self._value(text, "psl_serve_resident_packed_bytes") >= packed.shared_bytes
        assert self._value(text, "psl_serve_resident_dict_bytes") == 0
        assert self._value(text, "psl_serve_resident_dict_bytes_estimate") > 0
        active = registry.active.index
        assert (
            f'psl_serve_snapshot_packed_mmap_shared{{version="{active}"}} 0' in text
        )

    def test_dict_registry_exports_zero_packed_bytes(self, store):
        registry = make_registry(store, "dict")
        text = self._scrape(registry)
        assert self._value(text, "psl_serve_resident_packed_bytes") == 0
        assert self._value(text, "psl_serve_resident_dict_bytes") > 0


class TestWatchPackedStartup:
    """``psl-serve --watch --packed`` serves the prefix off the world's
    blob as it is: no repack at start-up and no pack per ingest."""

    def test_build_server_never_packs(self, store, monkeypatch):
        import argparse

        import repro.psl
        import repro.psl.packed
        import repro.serve.cli as serve_cli

        blob = PackedHistory.from_buffer(pack_history(store))
        monkeypatch.setattr(serve_cli, "build_world", lambda seed, cache_dir, packed: (store, blob))

        def refuse(*args, **kwargs):
            raise AssertionError("packed at runtime")

        for module in (repro.psl, repro.psl.packed):
            monkeypatch.setattr(module, "pack_history", refuse)
            monkeypatch.setattr(module, "pack_rules", refuse)
        args = argparse.Namespace(
            seed=0, cache_dir=None, packed=True, watch=True, behind=1, poll_interval=0.1,
            host="127.0.0.1", port=0, version="latest", resident=4, max_inflight=8,
            request_timeout=5.0, verbose=False,
        )
        server = serve_cli.build_server(args)
        try:
            registry = server.registry
            assert registry.packed_history is blob
            assert len(registry) == 2 and registry.active.packed
            (record,) = server.watcher.poll_once()
            assert record.action == "accepted"
            assert record.fingerprint == store.checkout(2).fingerprint
            assert registry.active.index == 2 and not registry.active.packed
            assert registry.active.match("sub.city.kawasaki.jp").site == "city.kawasaki.jp"
        finally:
            server.server_close()
