"""Append-only, content-addressed store of PSL versions.

The store models what the paper extracted from the publicsuffix/list
git repository: an ordered sequence of dated rule-set versions.  Three
access patterns matter and are all supported efficiently:

* **sequential replay** (the version sweeps of Figures 5-7) — walk
  ``versions`` and apply each :class:`~repro.psl.diff.RuleDelta`;
* **random checkout** (list dating, harm analysis) — periodic frozen
  snapshots bound the number of deltas replayed to reach any index;
* **date queries** (corpus construction) — binary search over the
  monotone date sequence.

Materialized :class:`~repro.psl.list.PublicSuffixList` objects are
cached with a small LRU because building the suffix trie dominates
checkout cost.
"""

from __future__ import annotations

import bisect
import datetime
from collections import OrderedDict
from typing import Iterable, Iterator

from repro.psl.diff import RuleDelta
from repro.psl.fingerprint import SortedRuleSet
from repro.psl.list import PublicSuffixList
from repro.psl.rules import Rule
from repro.history.version import PslVersion, commit_hash, rule_digest

GENESIS_HASH = "0" * 64


class VersionStore:
    """An ordered, append-only sequence of PSL versions."""

    def __init__(self, *, snapshot_interval: int = 64, checkout_cache_size: int = 8) -> None:
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be positive")
        self._versions: list[PslVersion] = []
        self._dates: list[datetime.date] = []
        self._snapshot_interval = snapshot_interval
        self._snapshots: dict[int, frozenset[Rule]] = {}
        self._checkout_cache: OrderedDict[int, PublicSuffixList] = OrderedDict()
        self._checkout_cache_size = checkout_cache_size
        self._tip_rules: set[Rule] = set()
        self._tip_digest = 0
        self._index_by_digest: dict[int, int] = {}
        # ~1 MiB for the real list: not pickled, rebuilt by the next commit.
        self._tip_sorted: SortedRuleSet | None = SortedRuleSet()

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_tip_sorted": None}

    # -- writing -------------------------------------------------------------

    def commit(self, date: datetime.date, delta: RuleDelta, message: str = "") -> PslVersion:
        """Append a new version.

        Enforces the invariants a real VCS history provides: dates are
        monotone non-decreasing, removed rules must exist, added rules
        must not, and empty deltas are rejected (the paper's 1,142
        "versions" are exactly the commits that changed the rule set).
        Each version's ``fingerprint`` is stamped here, once.
        """
        if not delta:
            raise ValueError("refusing to commit an empty delta")
        if self._versions and date < self._versions[-1].date:
            raise ValueError(
                f"non-monotone commit date {date} after {self._versions[-1].date}"
            )
        missing = delta.removed - self._tip_rules
        if missing:
            raise ValueError(
                f"delta removes absent rules: {sorted(r.text for r in missing)[:5]}"
            )
        present = delta.added & self._tip_rules
        if present:
            raise ValueError(
                f"delta adds duplicate rules: {sorted(r.text for r in present)[:5]}"
            )

        parent = self._versions[-1].commit if self._versions else GENESIS_HASH
        if self._tip_sorted is None:
            self._tip_sorted = SortedRuleSet(self._tip_rules)
        self._tip_rules -= delta.removed
        self._tip_rules |= delta.added
        for rule in delta.removed:
            self._tip_digest ^= rule_digest(rule.text)
            self._tip_sorted.remove(rule)
        for rule in delta.added:
            self._tip_digest ^= rule_digest(rule.text)
            self._tip_sorted.add(rule)
        version = PslVersion(
            index=len(self._versions),
            date=date,
            commit=commit_hash(parent, date, delta),
            delta=delta,
            rule_count=len(self._tip_rules),
            set_digest=self._tip_digest,
            message=message,
            fingerprint=self._tip_sorted.fingerprint().hex(),
        )
        self._index_by_digest.setdefault(self._tip_digest, version.index)
        self._versions.append(version)
        self._dates.append(date)
        if version.index % self._snapshot_interval == 0:
            self._snapshots[version.index] = frozenset(self._tip_rules)
        return version

    def commit_rules(self, date: datetime.date, added: Iterable[Rule] = (), removed: Iterable[Rule] = (), message: str = "") -> PslVersion:
        """Convenience wrapper building the delta from rule iterables."""
        return self.commit(
            date,
            RuleDelta(added=frozenset(added), removed=frozenset(removed)),
            message=message,
        )

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._versions)

    def __iter__(self) -> Iterator[PslVersion]:
        return iter(self._versions)

    @property
    def versions(self) -> tuple[PslVersion, ...]:
        """All versions, oldest first."""
        return tuple(self._versions)

    @property
    def latest(self) -> PslVersion:
        """The newest version."""
        if not self._versions:
            raise IndexError("store is empty")
        return self._versions[-1]

    def version(self, index: int) -> PslVersion:
        """The version at ``index`` (supports negative indices)."""
        return self._versions[index]

    def version_at_date(self, date: datetime.date) -> PslVersion | None:
        """The newest version dated on or before ``date``, or None.

        This is how a vendored list copied on some day maps to a list
        version: the file reflects whatever the list looked like then.
        """
        position = bisect.bisect_right(self._dates, date)
        if position == 0:
            return None
        return self._versions[position - 1]

    def rules_at(self, index: int) -> frozenset[Rule]:
        """The full rule set of the version at ``index``.

        Starts from the nearest snapshot at or below ``index`` and
        replays at most ``snapshot_interval - 1`` deltas.
        """
        if index < 0:
            index += len(self._versions)
        if not 0 <= index < len(self._versions):
            raise IndexError(f"version index {index} out of range")
        snapshot_index = (index // self._snapshot_interval) * self._snapshot_interval
        while snapshot_index not in self._snapshots and snapshot_index > 0:
            snapshot_index -= self._snapshot_interval
        rules = set(self._snapshots.get(snapshot_index, frozenset()))
        start = snapshot_index if snapshot_index in self._snapshots else -1
        # Replay deltas strictly after the snapshot version up to index.
        for position in range(start + 1, index + 1):
            delta = self._versions[position].delta
            rules -= delta.removed
            rules |= delta.added
        return frozenset(rules)

    def checkout(self, index: int) -> PublicSuffixList:
        """Materialize the version at ``index`` as a PublicSuffixList."""
        if index < 0:
            index += len(self._versions)
        cached = self._checkout_cache.get(index)
        if cached is not None:
            self._checkout_cache.move_to_end(index)
            return cached
        psl = PublicSuffixList(self.rules_at(index))
        self._checkout_cache[index] = psl
        if len(self._checkout_cache) > self._checkout_cache_size:
            self._checkout_cache.popitem(last=False)
        return psl

    def checkout_date(self, date: datetime.date) -> PublicSuffixList | None:
        """Materialize the newest version on or before ``date``."""
        version = self.version_at_date(date)
        if version is None:
            return None
        return self.checkout(version.index)

    def find_by_digest(self, digest: int) -> PslVersion | None:
        """The earliest version whose rule set has this digest, if any.

        This is the exact-match path of vendored-list dating: hash the
        vendored rules (order-independent) and look the digest up here.
        """
        index = self._index_by_digest.get(digest)
        if index is None:
            return None
        return self._versions[index]

    def delta_between(self, older: int, newer: int) -> RuleDelta:
        """The net delta from version ``older`` to version ``newer``."""
        if older > newer:
            return self.delta_between(newer, older).invert()
        if newer == older + 1:
            return self._versions[newer].delta  # committed deltas are already net
        result = RuleDelta(frozenset(), frozenset())
        for position in range(older + 1, newer + 1):
            result = result.compose(self._versions[position].delta)
        return result
