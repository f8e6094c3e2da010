"""The snapshot container.

A :class:`Snapshot` is the in-memory equivalent of one HTTP Archive
monthly table: a set of pages with their requests, and the derived set
of unique hostnames the boundary analyses operate on.  JSONL
persistence keeps large synthetic snapshots reusable across benchmark
runs without regenerating them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Iterator

from repro.webgraph.records import Page


@dataclass(slots=True)
class Snapshot:
    """One crawl snapshot: pages plus the unique-hostname universe.

    ``extra_hostnames`` holds hostnames that appear in the dataset
    without being a page or a request target (the HTTP Archive contains
    such rows too, e.g. redirect-only hosts); they participate in site
    grouping but not in third-party accounting.
    """

    pages: list[Page] = field(default_factory=list)
    extra_hostnames: set[str] = field(default_factory=set)
    label: str = ""

    _hostnames: tuple[str, ...] | None = field(default=None, repr=False, compare=False)

    def add_page(self, page: Page) -> None:
        """Append a page and invalidate the hostname cache."""
        self.pages.append(page)
        self._hostnames = None

    def add_hostname(self, hostname: str) -> None:
        """Register a hostname that has no page/request row."""
        self.extra_hostnames.add(hostname)
        self._hostnames = None

    @property
    def hostnames(self) -> tuple[str, ...]:
        """Every unique hostname, sorted (deterministic order matters
        for seeded downstream sampling)."""
        if self._hostnames is None:
            unique: set[str] = set(self.extra_hostnames)
            for page in self.pages:
                unique.add(page.host)
                unique.update(page.request_hosts)
            self._hostnames = tuple(sorted(unique))
        return self._hostnames

    @property
    def request_count(self) -> int:
        """Total requests across all pages (with multiplicity)."""
        return sum(page.request_count for page in self.pages)

    def __len__(self) -> int:
        return len(self.hostnames)

    def iter_request_pairs(self) -> Iterator[tuple[str, str]]:
        """(page host, request host) pairs, with multiplicity (Python per page, C per pair)."""
        hosts = chain.from_iterable(repeat(page.host, page.request_count) for page in self.pages)
        return zip(hosts, chain.from_iterable(page.request_hosts for page in self.pages))

    # -- persistence ---------------------------------------------------------

    def dump_jsonl(self, path: str) -> None:
        """Write the snapshot as JSON lines (one page or hostname per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"label": self.label}) + "\n")
            for page in self.pages:
                record = {"page": page.host, "requests": list(page.request_hosts)}
                handle.write(json.dumps(record) + "\n")
            for hostname in sorted(self.extra_hostnames):
                handle.write(json.dumps({"host": hostname}) + "\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "Snapshot":
        """Read a snapshot written by :meth:`dump_jsonl`."""
        snapshot = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "label" in record and "page" not in record and "host" not in record:
                    snapshot.label = record["label"]
                elif "page" in record:
                    snapshot.pages.append(
                        Page(host=record["page"], request_hosts=tuple(record["requests"]))
                    )
                elif "host" in record:
                    snapshot.extra_hostnames.add(record["host"])
        return snapshot

    @classmethod
    def from_pages(cls, pages: Iterable[Page], label: str = "") -> "Snapshot":
        """Build a snapshot from an iterable of pages."""
        return cls(pages=list(pages), label=label)

    @classmethod
    def from_url_log(
        cls, rows: Iterable[tuple[str, str]], label: str = ""
    ) -> "Snapshot":
        """Build a snapshot from raw (page URL, request URL) rows.

        This is step 1 of the paper's methodology applied to crawl
        logs: every URL is stripped to its hostname.  Rows whose page
        or request authority is an IP literal or unparseable are
        skipped — they have no registrable domain and the HTTP Archive
        queries exclude them too.
        """
        from repro.net.errors import NetError
        from repro.net.url import parse_url

        by_page: dict[str, list[str]] = {}
        for page_url, request_url in rows:
            try:
                page = parse_url(page_url)
                request = parse_url(request_url)
            except NetError:
                continue
            if page.host is None or request.host is None:
                continue
            by_page.setdefault(page.host.name, []).append(request.host.name)
        return cls(
            pages=[
                Page(host=host, request_hosts=tuple(requests))
                for host, requests in sorted(by_page.items())
            ],
            label=label,
        )
