"""HTTP-Archive-like web traffic substrate.

The paper interprets the hostnames of the HTTP Archive's July 2022
desktop snapshot under every historical PSL version.  This package
models that dataset and the operations over it:

* :mod:`repro.webgraph.records` — pages and requests;
* :mod:`repro.webgraph.archive` — the snapshot container with JSONL
  persistence;
* :mod:`repro.webgraph.sites` — eTLD+1 site grouping under one list
  version (the per-version reference the classify engine's sweep is
  tested against);
* :mod:`repro.webgraph.thirdparty` — third-party request
  classification (Figure 6);
* :mod:`repro.webgraph.synthesis` — the deterministic crawl-snapshot
  generator calibrated against the paper's harm schedule;
* :mod:`repro.webgraph.requestlog` — the streaming, block-addressable
  request-log generator feeding the bulk classify engine.
"""

from repro.webgraph.archive import Snapshot
from repro.webgraph.crawler import Crawler, Document, SyntheticWeb
from repro.webgraph.records import Page
from repro.webgraph.requestlog import (
    RequestLogConfig,
    block_count,
    iter_block,
    iter_records,
    record_count,
)
from repro.webgraph.sites import (
    group_sites,
    reversed_labels_of,
    site_for_reversed,
    site_metrics,
)
from repro.webgraph.stats import site_size_fit, snapshot_statistics
from repro.webgraph.stream import (
    StreamedSiteCounts,
    StreamedThirdPartyCounts,
    count_sites_streaming,
    count_third_party_streaming,
)
from repro.webgraph.synthesis import SnapshotConfig, synthesize_snapshot
from repro.webgraph.tables import Table, hostnames_table, requests_table, sweep_table
from repro.webgraph.thirdparty import count_third_party

__all__ = [
    "Crawler",
    "Document",
    "Page",
    "RequestLogConfig",
    "Snapshot",
    "SnapshotConfig",
    "block_count",
    "StreamedSiteCounts",
    "StreamedThirdPartyCounts",
    "SyntheticWeb",
    "Table",
    "count_sites_streaming",
    "count_third_party",
    "count_third_party_streaming",
    "group_sites",
    "hostnames_table",
    "iter_block",
    "iter_records",
    "record_count",
    "requests_table",
    "reversed_labels_of",
    "site_for_reversed",
    "site_metrics",
    "site_size_fit",
    "snapshot_statistics",
    "sweep_table",
    "synthesize_snapshot",
]
