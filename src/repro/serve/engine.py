"""The thread-safe query engine over a snapshot registry.

Answers the four questions a PSL consumer asks, each in single and
batch form, all safe to call from any number of threads concurrently
with registry hot-swaps:

* **site** — which privacy boundary does this hostname belong to?
* **classify** — is this request third-party to this page?
* **compare** — would an older list version have answered differently?
  (the per-hostname form of the paper's Figure 7 divergence and of
  :mod:`repro.analysis.boundaries`' ``diff_vs_latest`` series)
* **batch** — the same, amortized over many hostnames with snapshot
  pinning: every answer in one batch comes from one version even if a
  swap lands mid-batch.

Every lookup takes one uncached path, for dict and packed snapshots
alike: :func:`repro.net.hostname.normalize_or_reject` (the same gate
the streaming ingest path uses; anything it refuses surfaces as a
structured :class:`~repro.net.errors.HostnameError`, the HTTP layer's
400), then one :meth:`PslSnapshot.match` trie walk.  Nothing is
memoised per hostname: the walk costs ~5 µs on either backend, and
with no cache a hot-swap never has anything to invalidate.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.net.errors import HostnameError
from repro.net.hostname import normalize_or_reject
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry


@dataclass(frozen=True, slots=True)
class SiteAnswer:
    """The serving-shape result of one hostname lookup."""

    hostname: str
    site: str
    public_suffix: str
    registrable_domain: str | None
    is_public_suffix: bool
    version_index: int
    version_date: datetime.date

    def to_json(self) -> dict:
        return {
            "hostname": self.hostname,
            "site": self.site,
            "public_suffix": self.public_suffix,
            "registrable_domain": self.registrable_domain,
            "is_public_suffix": self.is_public_suffix,
            "version": self.version_index,
            "version_date": self.version_date.isoformat(),
        }


@dataclass(frozen=True, slots=True)
class BatchItemError:
    """One rejected hostname inside a batch (the batch itself succeeds)."""

    hostname: str
    reason: str

    def to_json(self) -> dict:
        return {"hostname": self.hostname, "error": {"kind": "invalid_hostname", "reason": self.reason}}


@dataclass(frozen=True, slots=True)
class BatchAnswer:
    """A whole batch answered under one pinned snapshot."""

    version_index: int
    version_date: datetime.date
    answers: tuple[SiteAnswer | BatchItemError, ...]

    @property
    def ok_count(self) -> int:
        return sum(1 for a in self.answers if isinstance(a, SiteAnswer))

    @property
    def error_count(self) -> int:
        return len(self.answers) - self.ok_count

    def to_json(self) -> dict:
        return {
            "version": self.version_index,
            "version_date": self.version_date.isoformat(),
            "count": len(self.answers),
            "errors": self.error_count,
            "answers": [a.to_json() for a in self.answers],
        }


@dataclass(frozen=True, slots=True)
class ClassifyAnswer:
    """First/third-party verdict for one (page, request) pair."""

    page: SiteAnswer
    request: SiteAnswer
    third_party: bool

    def to_json(self) -> dict:
        return {
            "page": self.page.to_json(),
            "request": self.request.to_json(),
            "third_party": self.third_party,
            "version": self.page.version_index,
        }


@dataclass(frozen=True, slots=True)
class CompareAnswer:
    """One hostname's site under two list versions.

    ``diverges`` is exactly the condition the paper's Figure 7 counts
    per version over a whole snapshot: a consumer pinned to ``old``
    places the hostname in a different privacy boundary than ``new``
    does — a misclassification in the making.
    """

    hostname: str
    old: SiteAnswer
    new: SiteAnswer

    @property
    def diverges(self) -> bool:
        return self.old.site != self.new.site

    def to_json(self) -> dict:
        return {
            "hostname": self.hostname,
            "old": self.old.to_json(),
            "new": self.new.to_json(),
            "diverges": self.diverges,
        }


class QueryEngine:
    """Concurrent PSL queries over a :class:`SnapshotRegistry`."""

    def __init__(self, registry: SnapshotRegistry) -> None:
        self._registry = registry

    @property
    def registry(self) -> SnapshotRegistry:
        return self._registry

    # -- internals -----------------------------------------------------------

    def _pin(self, version: object | None) -> PslSnapshot:
        """The snapshot a request should answer from, grabbed once."""
        if version is None:
            return self._registry.active
        return self._registry.resident(version)

    def _answer(self, snapshot: PslSnapshot, hostname: str) -> SiteAnswer:
        match = snapshot.match(normalize_or_reject(hostname))
        return SiteAnswer(
            hostname=match.hostname,
            site=match.site,
            public_suffix=match.public_suffix,
            registrable_domain=match.registrable_domain,
            is_public_suffix=match.registrable_domain is None,
            version_index=snapshot.index,
            version_date=snapshot.date,
        )

    # -- the query surface ---------------------------------------------------

    def site(self, hostname: str, *, version: object | None = None) -> SiteAnswer:
        """The privacy boundary of one hostname under one version."""
        return self._answer(self._pin(version), hostname)

    def batch(
        self, hostnames: Sequence[str] | Iterable[str], *, version: object | None = None
    ) -> BatchAnswer:
        """Many hostnames under ONE snapshot, pinned for the whole batch.

        Malformed entries become :class:`BatchItemError` rows in place;
        one bad hostname must never sink the other thousand.
        """
        snapshot = self._pin(version)
        answers: list[SiteAnswer | BatchItemError] = []
        for hostname in hostnames:
            try:
                answers.append(self._answer(snapshot, hostname))
            except HostnameError as exc:
                answers.append(BatchItemError(hostname=str(exc.value), reason=exc.reason))
        return BatchAnswer(
            version_index=snapshot.index,
            version_date=snapshot.date,
            answers=tuple(answers),
        )

    def classify(
        self, page_host: str, request_host: str, *, version: object | None = None
    ) -> ClassifyAnswer:
        """Third-party check: do page and request cross a site boundary?

        Both lookups are pinned to one snapshot — a swap between the
        two would manufacture phantom third-party verdicts.
        """
        snapshot = self._pin(version)
        page = self._answer(snapshot, page_host)
        request = self._answer(snapshot, request_host)
        return ClassifyAnswer(page=page, request=request, third_party=page.site != request.site)

    def compare(
        self, hostname: str, old: object, new: object | None = None
    ) -> CompareAnswer:
        """One hostname's site under two versions (``new`` defaults latest).

        The per-hostname misclassification probe: with ``new`` left at
        the default this is the serving-side twin of the sweep's
        ``diff_vs_latest`` membership test in
        :mod:`repro.analysis.boundaries`.
        """
        old_snapshot = self._registry.resident(old)
        new_snapshot = self._registry.resident("latest" if new is None else new)
        return CompareAnswer(
            hostname=normalize_or_reject(hostname),
            old=self._answer(old_snapshot, hostname),
            new=self._answer(new_snapshot, hostname),
        )
