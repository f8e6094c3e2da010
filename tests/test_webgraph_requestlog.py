"""The streaming request-log generator: determinism and shape."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.net.hostname import normalize_or_none
from repro.webgraph.requestlog import (
    MALFORMED_HOSTS,
    RequestLogConfig,
    block_count,
    iter_block,
    iter_records,
    record_count,
)


class TestConfig:
    def test_scale_implies_record_count(self):
        assert record_count(RequestLogConfig(scale=1.0)) == 1_000_000
        assert record_count(RequestLogConfig(scale=0.01)) == 10_000

    def test_explicit_records_override_scale(self):
        assert record_count(RequestLogConfig(scale=5.0, records=123)) == 123

    def test_block_count_covers_short_tail(self):
        config = RequestLogConfig(records=100, block_size=64)
        assert block_count(config) == 2
        assert sum(1 for _ in iter_records(config)) == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0},
            {"scale": -1.0},
            {"records": -1},
            {"malformed_rate": 1.5},
            {"malformed_rate": -0.1},
            {"block_size": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RequestLogConfig(**kwargs)


class TestDeterminism:
    def test_blocks_regenerate_identically(self):
        config = RequestLogConfig(records=5000, block_size=512)
        for index in (0, 3, 7):
            assert list(iter_block(config, index)) == list(iter_block(config, index))

    def test_stream_is_concatenation_of_blocks(self):
        """Record content never depends on how a consumer batches the
        stream — the property chunk-granular resume rests on."""
        config = RequestLogConfig(records=3000, block_size=256)
        concatenated = [
            record
            for index in range(block_count(config))
            for record in iter_block(config, index)
        ]
        assert list(iter_records(config)) == concatenated

    def test_blocks_are_independent_of_record_total(self):
        """Block ``i`` is addressable from ``(config, i)`` alone: a
        longer stream with the same seed starts with the same blocks."""
        short = RequestLogConfig(records=1024, block_size=512)
        long = RequestLogConfig(records=4096, block_size=512)
        assert list(iter_block(short, 0)) == list(iter_block(long, 0))
        assert list(iter_block(short, 1)) == list(iter_block(long, 1))

    def test_different_seeds_differ(self):
        a = RequestLogConfig(seed=1, records=512, block_size=512)
        b = RequestLogConfig(seed=2, records=512, block_size=512)
        assert list(iter_block(a, 0)) != list(iter_block(b, 0))

    def test_block_index_out_of_range(self):
        config = RequestLogConfig(records=100, block_size=64)
        with pytest.raises(ValueError):
            next(iter_block(config, 2))


class TestContent:
    def test_every_record_is_a_host_pair(self):
        config = RequestLogConfig(records=2000, block_size=512, malformed_rate=0.0)
        for page, request in iter_records(config):
            assert normalize_or_none(page) is not None
            assert normalize_or_none(request) is not None

    def test_malformed_rate_injects_skippable_endpoints(self):
        config = RequestLogConfig(records=20_000, block_size=4096, malformed_rate=0.02)
        bad = sum(
            1
            for page, request in iter_records(config)
            if normalize_or_none(page) is None or normalize_or_none(request) is None
        )
        # Binomial(20k, 0.02) stays comfortably inside [200, 600].
        assert 200 <= bad <= 600

    def test_malformed_inventory_is_actually_malformed(self):
        for host in MALFORMED_HOSTS:
            assert normalize_or_none(host) is None

    def test_scale_grows_the_host_universe(self):
        def universe(scale: float) -> int:
            config = RequestLogConfig(records=20_000, block_size=4096, scale=scale)
            hosts = set()
            for page, request in iter_records(config):
                hosts.add(page)
                hosts.add(request)
            return len(hosts)

        assert universe(4.0) > universe(0.1) * 1.5

    def test_version_sensitive_tenants_present(self):
        """Tenant hosts under real PRIVATE-division suffixes are the
        rows whose classification flips across PSL versions."""
        config = RequestLogConfig(records=5000, block_size=1024)
        hosts = {h for record in iter_records(config) for h in record}
        tenants = [h for h in hosts if h.startswith("tenant-")]
        assert len(tenants) > 50

    def test_streaming_is_lazy(self):
        config = RequestLogConfig(scale=1000.0)  # one billion records
        first = list(itertools.islice(iter_records(config), 10))
        assert len(first) == 10


def records_digest(config: RequestLogConfig) -> str:
    """SHA-256 over the stream, one JSON ``[page, request]`` per record."""
    digest = hashlib.sha256()
    for page, request in iter_records(config):
        digest.update(json.dumps([page, request]).encode())
    return digest.hexdigest()


class TestPinnedStreams:
    """The generator's exact output, pinned by digest.

    Every RNG draw and its order are part of the stream's identity (the
    benchmark's row digests and every resumed run rest on it), so any
    rewrite of the generator's inner loop must reproduce these bytes.
    """

    def test_default_config(self):
        assert records_digest(RequestLogConfig(records=65536)) == (
            "9f371b71e025e9ede8cd06a181a76525b1e269c48951a7b6c155f1dc11e19286"
        )

    def test_malformed_heavy_short_blocks(self):
        config = RequestLogConfig(records=65536, malformed_rate=0.2, block_size=1000)
        assert records_digest(config) == (
            "d21dc3d2f992a011de8ad35dd255f847ff9fe0d79bcbb3122c16348c92a25f61"
        )

    def test_small_scale_universe(self):
        assert records_digest(RequestLogConfig(scale=0.01)) == (
            "862456655ab4ea10aae2bb5e504dec795dcc3daaf5922824c8db8e4ddbedda17"
        )
