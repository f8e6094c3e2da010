"""Statistical summaries of crawl snapshots.

Measurement papers sanity-check their datasets before analyzing them;
these are the summaries that would appear in a data-description
section: hostname depth distribution, per-site size distribution with
a Zipf-exponent fit, request fan-out, and suffix diversity.  Built on
numpy for the percentile/fit arithmetic, imported inside the functions
that use it: :mod:`repro.webgraph` re-exports this module, so a
module-scope import would load numpy into every process that touches
the package (``psl-classify``'s request-log generator among them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.webgraph.archive import Snapshot


@dataclass(frozen=True, slots=True)
class DistributionSummary:
    """Five-number-ish summary of a non-negative integer distribution."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    maximum: int

    @classmethod
    def from_values(cls, values: list[int]) -> "DistributionSummary":
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0)
        import numpy as np

        array = np.asarray(values, dtype=np.int64)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            median=float(np.median(array)),
            p90=float(np.percentile(array, 90)),
            p99=float(np.percentile(array, 99)),
            maximum=int(array.max()),
        )


@dataclass(frozen=True, slots=True)
class SnapshotStatistics:
    """The data-description numbers for one snapshot."""

    hostnames: int
    pages: int
    requests: int
    label_depth: DistributionSummary
    requests_per_page: DistributionSummary
    distinct_tlds: int

    @property
    def mean_requests_per_page(self) -> float:
        return self.requests_per_page.mean


def snapshot_statistics(snapshot: Snapshot) -> SnapshotStatistics:
    """Summarize one snapshot."""
    depths = [host.count(".") + 1 for host in snapshot.hostnames]
    fanout = [page.request_count for page in snapshot.pages]
    tlds = {host.rsplit(".", 1)[-1] for host in snapshot.hostnames}
    return SnapshotStatistics(
        hostnames=len(snapshot.hostnames),
        pages=len(snapshot.pages),
        requests=snapshot.request_count,
        label_depth=DistributionSummary.from_values(depths),
        requests_per_page=DistributionSummary.from_values(fanout),
        distinct_tlds=len(tlds),
    )


@dataclass(frozen=True, slots=True)
class SiteSizeFit:
    """Site-size distribution with a fitted power-law exponent.

    ``zipf_exponent`` is the slope of log(size) over log(rank) for the
    top of the distribution — the classic heavy-tail diagnostic.  A
    value around -1 is the canonical Zipf web shape.
    """

    sizes: DistributionSummary
    singleton_share: float
    zipf_exponent: float | None


def site_size_fit(assignment: Mapping[str, str], *, head: int = 200) -> SiteSizeFit:
    """Fit the site-size distribution of one grouping."""
    counts: dict[str, int] = {}
    for site in assignment.values():
        counts[site] = counts.get(site, 0) + 1
    sizes = sorted(counts.values(), reverse=True)
    singleton_share = (
        sum(1 for size in sizes if size == 1) / len(sizes) if sizes else 0.0
    )

    exponent: float | None = None
    top = [size for size in sizes[:head] if size > 0]
    if len(top) >= 10 and top[0] > top[-1]:
        import numpy as np

        ranks = np.arange(1, len(top) + 1, dtype=np.float64)
        slope, _ = np.polyfit(np.log(ranks), np.log(np.asarray(top, dtype=np.float64)), 1)
        exponent = float(slope)

    return SiteSizeFit(
        sizes=DistributionSummary.from_values(sizes),
        singleton_share=singleton_share,
        zipf_exponent=exponent,
    )


def render_statistics(stats: SnapshotStatistics) -> str:
    """A data-description paragraph as monospace text."""
    depth = stats.label_depth
    fanout = stats.requests_per_page
    return "\n".join(
        [
            f"hostnames: {stats.hostnames:,}  pages: {stats.pages:,}  requests: {stats.requests:,}",
            f"label depth: mean {depth.mean:.2f}, median {depth.median:.0f}, p99 {depth.p99:.0f}, max {depth.maximum}",
            f"requests/page: mean {fanout.mean:.2f}, p90 {fanout.p90:.0f}, max {fanout.maximum}",
            f"distinct TLDs: {stats.distinct_tlds}",
        ]
    )
