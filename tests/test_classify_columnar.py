"""Columnar ingest: oracle-compatible skip semantics, refs, spooling."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle

import pytest

from repro.classify.columnar import (
    ColumnarChunk,
    SpooledChunkRef,
    SyntheticChunkRef,
    columnar_chunk,
    iter_columnar_chunks,
    spool_chunks,
)
from repro.webgraph.requestlog import RequestLogConfig, iter_block

RECORDS = [
    ("www.example.com", "cdn.example.com"),
    ("www.example.com", "pixel.tracker.net"),
    ("WWW.Example.COM.", "cdn.example.com"),  # normalizes to the same host
    ("bad..host", "cdn.example.com"),  # malformed page, valid request
    ("www.example.com", ""),  # valid page, malformed request
    ("", "white space.org"),  # both malformed
]


class TestColumnarChunk:
    def test_skip_semantics_match_the_streaming_oracles(self):
        """Each valid endpoint counts as a hostname occurrence even
        when its partner is malformed (what ``count_sites_streaming``
        sees on the flattened stream); a pair row exists only when both
        endpoints are valid (what ``count_third_party_streaming``
        counts); ``skipped_hosts``/``skipped_pairs`` are the two
        oracles' ``skipped`` fields."""
        chunk = columnar_chunk(0, RECORDS)
        assert chunk.skipped_hosts == 4
        assert chunk.skipped_pairs == 3
        assert chunk.hostnames == 8  # 12 endpoints - 4 malformed
        assert len(chunk.pages) == len(chunk.requests) == 3
        assert chunk.records == len(RECORDS)

    def test_hosts_are_normalized_and_interned(self):
        chunk = columnar_chunk(0, RECORDS)
        assert "www.example.com" in chunk.hosts
        assert len(chunk.hosts) == len(set(chunk.hosts))
        # The differently-cased spelling interned to the same slot.
        slot = chunk.hosts.index("www.example.com")
        assert chunk.occurrences[slot] == 4

    def test_occurrences_align_with_hosts(self):
        chunk = columnar_chunk(0, RECORDS)
        assert len(chunk.occurrences) == len(chunk.hosts)
        assert all(occurrence > 0 for occurrence in chunk.occurrences)

    def test_non_string_endpoint_is_skipped_not_fatal(self):
        chunk = columnar_chunk(0, [(None, "a.com"), ("b.com", 7), (["a.com"], "a.com")])
        assert chunk.skipped_pairs == 3
        assert chunk.hostnames == 3
        assert chunk.hosts == ("a.com", "b.com")

    def test_task_id_is_stable(self):
        assert columnar_chunk(3, []).task_id == "classify-3"


class TestChunking:
    def test_every_record_lands_in_exactly_one_chunk(self):
        chunks = list(iter_columnar_chunks(RECORDS * 10, 7))
        assert sum(chunk.records for chunk in chunks) == len(RECORDS) * 10
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))

    def test_chunk_totals_are_invariant_to_chunk_size(self):
        def totals(chunk_records: int) -> tuple[int, int, int]:
            chunks = list(iter_columnar_chunks(RECORDS * 8, chunk_records))
            return (
                sum(c.hostnames for c in chunks),
                sum(c.skipped_hosts for c in chunks),
                sum(len(c.pages) for c in chunks),
            )

        assert totals(3) == totals(11) == totals(1000)

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_columnar_chunks(RECORDS, 0))


class TestSyntheticRef:
    def test_ref_load_equals_direct_columnarization(self):
        config = RequestLogConfig(records=2000, block_size=512)
        ref = SyntheticChunkRef(config=config, first_block=1, block_count=2, index=4)
        direct = columnar_chunk(
            4,
            list(itertools.chain(iter_block(config, 1), iter_block(config, 2))),
        )
        assert ref.load() == direct
        assert ref.task_id == "classify-4"

    @pytest.mark.parametrize(
        "config, first_block, block_count, index, expected",
        [
            (
                RequestLogConfig(records=20000, block_size=4096, malformed_rate=0.01),
                1, 3, 7,
                "039749b0f4a174f8c9c8a2fdc1deda20ead6a8a14be469f184ab7cfa1cd2215a",
            ),
            (
                RequestLogConfig(records=8000, block_size=1000, malformed_rate=0.2),
                0, 8, 0,
                "57d3b0dd2349110b5830ec91d7db44c5cea9b70e2b29ca28ac4d26288938a20c",
            ),
        ],
    )
    def test_loaded_columns_are_pinned(self, config, first_block, block_count, index, expected):
        """Every column of a loaded chunk, pinned by digest: ingest
        rewrites must intern, count and skip exactly as before."""
        chunk = SyntheticChunkRef(config, first_block, block_count, index).load()
        payload = [
            chunk.index,
            list(chunk.hosts),
            list(chunk.occurrences),
            list(chunk.pages),
            list(chunk.requests),
            chunk.skipped_hosts,
            chunk.skipped_pairs,
        ]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == expected

    def test_ref_pickle_is_tiny_at_any_scale(self):
        config = RequestLogConfig(scale=1000.0)
        ref = SyntheticChunkRef(config=config, first_block=9000, block_count=4, index=2250)
        assert len(pickle.dumps(ref)) < 500


class TestSpooling:
    def test_spool_and_load_round_trip(self, tmp_path):
        refs = spool_chunks(RECORDS * 6, 10, str(tmp_path / "spool"))
        assert [ref.index for ref in refs] == list(range(len(refs)))
        loaded = [ref.load() for ref in refs]
        assert sum(chunk.records for chunk in loaded) == len(RECORDS) * 6

    def test_respooling_is_deterministic(self, tmp_path):
        first = spool_chunks(RECORDS * 6, 10, str(tmp_path / "spool"))
        second = spool_chunks(RECORDS * 6, 10, str(tmp_path / "spool"))
        assert first == second

    def test_corrupted_spool_is_refused(self, tmp_path):
        ref = spool_chunks(RECORDS, 10, str(tmp_path / "spool"))[0]
        with open(ref.path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff")
        with pytest.raises(ValueError, match="digest"):
            ref.load()

    def test_wrong_payload_type_is_refused(self, tmp_path):
        import hashlib

        payload = pickle.dumps({"not": "a chunk"})
        path = str(tmp_path / "bogus.bin")
        with open(path, "wb") as handle:
            handle.write(payload)
        ref = SpooledChunkRef(
            path=path,
            digest=hashlib.sha256(payload).hexdigest(),
            nbytes=len(payload),
            index=0,
        )
        with pytest.raises(ValueError, match="ColumnarChunk"):
            ref.load()
