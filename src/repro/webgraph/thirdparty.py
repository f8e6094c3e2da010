"""Third-party request classification (Figure 6).

A request is *third-party* when the requested host's site differs from
the page's site under the list version being evaluated.  As the PSL
changes, the same request flips between first- and third-party — that
flip rate is exactly the privacy signal the paper measures.

Like site grouping, this comes in a one-shot form and an incremental
form keyed off the set of hostnames whose site just changed.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.webgraph.archive import Snapshot


def count_third_party(assignment: Mapping[str, str], snapshot: Snapshot) -> int:
    """Requests whose host is outside the page's site, one-shot."""
    total = 0
    for page_host, request_host in snapshot.iter_request_pairs():
        if assignment[page_host] != assignment[request_host]:
            total += 1
    return total


class ThirdPartyCounter:
    """Maintains the third-party request count across site changes.

    Pairs are indexed by both endpoints; when the incremental grouper
    reports changed hostnames, only pairs touching those hosts are
    re-evaluated.

    ``pairs`` may be a :class:`Snapshot` or any iterable of
    ``(page_host, request_host)`` tuples.
    """

    def __init__(
        self,
        assignment: Mapping[str, str],
        pairs: "Snapshot | Iterable[tuple[str, str]]",
    ) -> None:
        source = pairs.iter_request_pairs() if isinstance(pairs, Snapshot) else pairs
        self._pairs: list[tuple[str, str]] = list(source)
        self._by_host: dict[str, list[int]] = {}
        for index, (page_host, request_host) in enumerate(self._pairs):
            self._by_host.setdefault(page_host, []).append(index)
            if request_host != page_host:
                self._by_host.setdefault(request_host, []).append(index)
        self._is_third: list[bool] = [
            assignment[page] != assignment[request] for page, request in self._pairs
        ]
        self._count = sum(self._is_third)

    @property
    def count(self) -> int:
        """Current number of third-party requests."""
        return self._count

    @property
    def pair_count(self) -> int:
        """Total requests tracked (with multiplicity)."""
        return len(self._pairs)

    def update(self, assignment: Mapping[str, str], changed_hosts: Iterable[str]) -> int:
        """Re-evaluate pairs touching ``changed_hosts``; returns the count."""
        seen: set[int] = set()
        for host in changed_hosts:
            for index in self._by_host.get(host, ()):
                if index in seen:
                    continue
                seen.add(index)
                page_host, request_host = self._pairs[index]
                is_third = assignment[page_host] != assignment[request_host]
                if is_third != self._is_third[index]:
                    self._count += 1 if is_third else -1
                    self._is_third[index] = is_third
        return self._count
