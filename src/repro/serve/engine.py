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

Every lookup takes one uncached walk, for dict and packed snapshots
alike: :func:`repro.net.hostname.normalize_or_reject` once (the same
gate the streaming ingest path uses; anything it refuses surfaces as a
structured :class:`~repro.net.errors.HostnameError`, the HTTP layer's
400), then one :meth:`PublicSuffixList.lookup` — an IDNA conversion
and a trie walk returning a plain tuple.  Every answer keeps those
tuples as its rows and writes its wire body straight from them through
one ``%`` template per version (:func:`_row_templates`): a
:class:`SiteAnswer` is a named tuple of the row plus its version, and
a batch is a list of rows, wrapped as objects only for Python callers
that read them.  Nothing is memoised per hostname: a whole ``/batch``
costs about 5–7 µs per host in process (normalize, walk and encode;
the walk alone 2–3 µs), and with no cache a hot-swap never has
anything to invalidate.
"""

from __future__ import annotations

import datetime
import functools
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from repro.net.errors import HostnameError
from repro.net.hostname import normalize_or_reject
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry


@functools.lru_cache(maxsize=256)
def _row_templates(version_index: int, version_date: datetime.date) -> tuple[str, str]:
    """The ``(domain, suffix)`` row templates of one version's answers.

    A row is ``json.dumps(SiteAnswer.to_json())`` byte for byte.  The
    domain template takes ``(hostname, site, public_suffix,
    registrable_domain)``, the suffix template ``(hostname, site,
    public_suffix)``.  Splicing the names in unescaped is sound because
    the hostname gate admits only names whose A-label form is
    ``[a-z0-9_.-]``.  Cached per version: a version's tail is formatted
    once, not once per answer.
    """
    tail = ', "version": %d, "version_date": "%s"}' % (version_index, version_date.isoformat())
    return (
        '{"hostname": "%s", "site": "%s", "public_suffix": "%s", '
        '"registrable_domain": "%s", "is_public_suffix": false' + tail,
        '{"hostname": "%s", "site": "%s", "public_suffix": "%s", '
        '"registrable_domain": null, "is_public_suffix": true' + tail,
    )


class SiteAnswer(NamedTuple):
    """The serving-shape result of one hostname lookup.

    The first three fields of the :meth:`PublicSuffixList.lookup` row
    it was answered from, plus the version that answered;
    :meth:`encoded` writes the wire body straight from them.
    """

    hostname: str
    public_suffix: str
    registrable_domain: str | None
    version_index: int
    version_date: datetime.date

    @property
    def site(self) -> str:
        return self.registrable_domain or self.public_suffix

    @property
    def is_public_suffix(self) -> bool:
        return self.registrable_domain is None

    def encoded(self) -> bytes:
        """The ``/site`` body: ``json.dumps(self.to_json())``, byte for byte."""
        name, suffix, registrable, index, date = self
        domain_row, suffix_row = _row_templates(index, date)
        if registrable is None:
            return (suffix_row % (name, suffix, suffix)).encode()
        return (domain_row % (name, registrable, suffix, registrable)).encode()

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


class BatchAnswer:
    """A whole batch answered under one pinned snapshot.

    Rows stay as the compact tuples the lookup walk produced: a
    :meth:`PublicSuffixList.lookup` row per answered hostname, a
    ``(hostname, reason)`` pair per rejected one.  :attr:`answers`
    wraps them as :class:`SiteAnswer` / :class:`BatchItemError` objects
    only when a Python caller reads it; :meth:`encoded` writes the wire
    body straight from the rows.
    """

    __slots__ = ("version_index", "version_date", "_rows", "_answers")

    def __init__(self, version_index: int, version_date: datetime.date, rows: list[tuple]) -> None:
        self.version_index = version_index
        self.version_date = version_date
        self._rows = rows
        self._answers: tuple[SiteAnswer | BatchItemError, ...] | None = None

    @property
    def answers(self) -> tuple[SiteAnswer | BatchItemError, ...]:
        if self._answers is None:
            index, date = self.version_index, self.version_date
            self._answers = tuple(
                BatchItemError(*row) if len(row) == 2 else SiteAnswer(*row[:3], index, date)
                for row in self._rows
            )
        return self._answers

    @property
    def error_count(self) -> int:
        return sum(1 for row in self._rows if len(row) == 2)

    @property
    def ok_count(self) -> int:
        return len(self._rows) - self.error_count

    def to_json(self) -> dict:
        return {
            "version": self.version_index,
            "version_date": self.version_date.isoformat(),
            "count": len(self._rows),
            "errors": self.error_count,
            "answers": [a.to_json() for a in self.answers],
        }

    def encoded(self) -> bytes:
        """The ``/batch`` body: ``json.dumps(self.to_json())``, byte for byte.

        Each answered row goes through the version's :func:`_row_templates`
        (the same rows :meth:`SiteAnswer.encoded` writes); rejected rows
        echo raw input and go through :func:`json.dumps`.
        """
        version, date = self.version_index, self.version_date.isoformat()
        domain_row, suffix_row = _row_templates(self.version_index, self.version_date)
        parts = []
        errors = 0
        for row in self._rows:
            if len(row) == 2:
                errors += 1
                parts.append(json.dumps(BatchItemError(*row).to_json()))
                continue
            name, suffix, registrable = row[0], row[1], row[2]
            if registrable is None:
                parts.append(suffix_row % (name, suffix, suffix))
            else:
                parts.append(domain_row % (name, registrable, suffix, registrable))
        return (
            '{"version": %d, "version_date": "%s", "count": %d, "errors": %d, "answers": [%s]}'
            % (version, date, len(parts), errors, ", ".join(parts))
        ).encode()


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

    def encoded(self) -> bytes:
        """The ``/classify`` body: ``json.dumps(self.to_json())``, byte for byte."""
        return b'{"page": %s, "request": %s, "third_party": %s, "version": %d}' % (
            self.page.encoded(), self.request.encoded(),
            b"true" if self.third_party else b"false", self.page.version_index,
        )


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

    def encoded(self) -> bytes:
        """The ``/compare`` body: ``json.dumps(self.to_json())``, byte for byte.

        ``hostname`` is the normalized input, which may hold U-labels,
        so it alone goes through :func:`json.dumps`.
        """
        return b'{"hostname": %s, "old": %s, "new": %s, "diverges": %s}' % (
            json.dumps(self.hostname).encode(), self.old.encoded(), self.new.encoded(),
            b"true" if self.diverges else b"false",
        )


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

    @staticmethod
    def _answer(snapshot: PslSnapshot, name: str) -> SiteAnswer:
        """One already-normalized name's answer under ``snapshot``."""
        ascii_name, suffix, registrable, _ = snapshot.psl.lookup(name)
        return SiteAnswer(ascii_name, suffix, registrable, snapshot.index, snapshot.date)

    # -- the query surface ---------------------------------------------------

    def site(self, hostname: str, *, version: object | None = None) -> SiteAnswer:
        """The privacy boundary of one hostname under one version."""
        snapshot = self._pin(version)
        return self._answer(snapshot, normalize_or_reject(hostname))

    def batch(
        self, hostnames: Sequence[str] | Iterable[str], *, version: object | None = None
    ) -> BatchAnswer:
        """Many hostnames under ONE snapshot, pinned for the whole batch.

        Malformed entries become :class:`BatchItemError` rows in place;
        one bad hostname must never sink the other thousand.
        """
        snapshot = self._pin(version)
        lookup = snapshot.psl.lookup
        rows: list[tuple] = []
        append = rows.append
        for hostname in hostnames:
            try:
                append(lookup(normalize_or_reject(hostname)))
            except HostnameError as exc:
                append((str(exc.value), exc.reason))
        return BatchAnswer(snapshot.index, snapshot.date, rows)

    def classify(
        self, page_host: str, request_host: str, *, version: object | None = None
    ) -> ClassifyAnswer:
        """Third-party check: do page and request cross a site boundary?

        Both lookups are pinned to one snapshot — a swap between the
        two would manufacture phantom third-party verdicts.
        """
        snapshot = self._pin(version)
        page = self._answer(snapshot, normalize_or_reject(page_host))
        request = self._answer(snapshot, normalize_or_reject(request_host))
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
        name = normalize_or_reject(hostname)
        return CompareAnswer(
            hostname=name,
            old=self._answer(old_snapshot, name),
            new=self._answer(new_snapshot, name),
        )
