"""Percentiles, quartiles and the compare verdict rule."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Distribution",
    "distribution",
    "nearest_rank",
    "tail_percentile",
    "verdict",
]

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
TAIL_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """0-based nearest-rank index; the epsilon keeps 99.9% of 10,000 at 9,990."""
    return min(count - 1, max(0, math.ceil(pct * count / 100.0 - 1e-9) - 1))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of an ascending sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    return sorted_values[_rank(pct, len(sorted_values))]


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when the sample is too small for any candidate (fewer
    than 20 samples).
    """
    for pct in TAIL_CANDIDATES:
        if count - 1 - _rank(pct, count) >= TAIL_BEYOND:
            return pct
    return None


#: The gated tail.  On a 2-vCPU virtual machine, ~20 ms host stalls
#: reach 0.5-1.5% of requests, so a p99 reads the host, not the
#: program: across eight identical serve-site runs its spread was 101%
#: against 10% for p95.  The highest supported percentile is still
#: reported beside it.
GATED_PCT = 95.0


@dataclass(frozen=True, slots=True)
class Distribution:
    """A latency sample reduced to what the record keeps.

    ``top`` is the highest percentile with ten samples beyond it
    (``top_pct``), ``None`` when the sample is too small for any.
    """

    n: int
    mean: float
    p50: float
    p95: float | None
    top: float | None
    top_pct: float | None

    @property
    def tail(self) -> float:
        """The gated tail: p95, or the mean when too few samples support a p95."""
        return self.mean if self.p95 is None else self.p95

    def to_json(self) -> dict:
        return {"n": self.n, "mean": self.mean, "p50": self.p50, "p95": self.p95,
                "top": self.top, "top_pct": self.top_pct, "tail": self.tail}


def distribution(values: Sequence[float]) -> Distribution:
    """Mean, median, p95 (where supported) and top percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("empty sample")
    count = len(ordered)
    top_pct = tail_percentile(count)
    supported = count - 1 - _rank(GATED_PCT, count) >= TAIL_BEYOND
    return Distribution(
        n=count,
        mean=statistics.fmean(ordered),
        p50=statistics.median(ordered),
        p95=nearest_rank(ordered, GATED_PCT) if supported else None,
        top=None if top_pct is None else nearest_rank(ordered, top_pct),
        top_pct=top_pct,
    )


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved``.

    Runs pair up in order (the i-th of each side), as alternating
    parent/change runs do.  A gain needs at least 10 pairs, the change
    winning at least 9 in 10 of them (ties count for neither side),
    and medians further apart than the parent's interquartile range.
    A regression is a median worse by more than ``bound`` of the
    parent's median.  When the parent's own spread exceeds the bound,
    the metric is ``unresolved``, except that every change run reading
    better than every parent run rules out a regression, and every
    change run reading worse than every parent run confirms one.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, median_parent, q3 = quartiles(parent)
    median_change = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and sign * (median_change - median_parent) > (q3 - q1)
    ):
        return "better"
    scale = abs(median_parent) or 1.0
    worse_by = sign * (median_parent - median_change) / scale
    noisy = (q3 - q1) / scale > bound
    if worse_by > bound:
        all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
        return "unresolved" if noisy and not all_worse else "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    return "unresolved" if noisy and not all_better else "unchanged"
