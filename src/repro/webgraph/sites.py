"""Site grouping: partitioning hostnames into privacy boundaries.

The paper's methodology (Section 5): determine each unique hostname's
suffix under a given PSL version and group hostnames into sites
(eTLD+1).  Two implementations:

* :func:`group_sites` — the straightforward one-shot grouping used for
  a single list version;
* :class:`IncrementalGrouper` — maintains the grouping *across* list
  versions by re-examining only hostnames under rules a delta touched
  (a typical delta touches a handful of rules covering a tiny fraction
  of the hostname universe).

Both share one site function with the classify engine's delta-driven
workers, which the property tests cross-check against both of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from sys import intern
from typing import Iterable, Mapping, Sequence

from repro.psl.diff import RuleDelta
from repro.psl.list import PublicSuffixList
from repro.psl.rules import Rule, RuleKind
from repro.psl.trie import SuffixTrie


def site_for_reversed(trie: SuffixTrie, reversed_labels: Sequence[str]) -> str:
    """The site (eTLD+1, or the bare suffix) for reversed pre-split labels.

    ``reversed_labels`` are the hostname's labels TLD-first — the order
    the trie walks anyway.  This is the hot loop of the whole
    reproduction, so it works on the raw trie rather than the
    :class:`PublicSuffixList` facade (no IDNA pass, no dataclass
    allocation), and taking the labels already reversed lets callers
    that replay many versions pay the split-and-reverse once per
    hostname instead of once per lookup.
    """
    rule = trie.prevailing(reversed_labels)
    if rule is None:
        suffix_length = 1
    elif rule.kind is RuleKind.EXCEPTION:
        suffix_length = rule.component_count - 1
    else:
        suffix_length = rule.component_count
    take = suffix_length + 1
    if take > len(reversed_labels):
        take = len(reversed_labels)
    return ".".join(reversed_labels[take - 1 :: -1])


def site_for(trie: SuffixTrie, labels: tuple[str, ...]) -> str:
    """The site for labels given left to right.

    Convenience wrapper over :func:`site_for_reversed`; replay loops
    should precompute reversed tuples and call that directly.
    """
    return site_for_reversed(trie, labels[::-1])


def reversed_labels_of(hostname: str) -> tuple[str, ...]:
    """A hostname's labels, reversed and interned.

    Interning matches :meth:`SuffixTrie.insert`, so trie-child probes
    during lookups compare pointer-equal keys.
    """
    labels = hostname.split(".")
    labels.reverse()
    return tuple(intern(label) for label in labels)


def group_sites(psl: PublicSuffixList, hostnames: Iterable[str]) -> dict[str, str]:
    """Map each hostname to its site under one list version."""
    trie = SuffixTrie(psl.rules)
    out: dict[str, str] = {}
    for host in hostnames:
        reversed_labels = host.split(".")
        reversed_labels.reverse()
        out[host] = site_for_reversed(trie, reversed_labels)
    return out


@dataclass(frozen=True, slots=True)
class SiteMetrics:
    """The Figure 5 quantities for one list version."""

    site_count: int
    hostname_count: int

    @property
    def mean_site_size(self) -> float:
        """Average number of hostnames per site."""
        if self.site_count == 0:
            return 0.0
        return self.hostname_count / self.site_count


def site_metrics(assignment: Mapping[str, str]) -> SiteMetrics:
    """Metrics of a hostname->site assignment."""
    return SiteMetrics(site_count=len(set(assignment.values())), hostname_count=len(assignment))


def _rule_base(rule: Rule) -> str:
    """The dotted name under which a rule can affect hostnames.

    A normal or exception rule affects hostnames at or below its own
    name; a wildcard rule affects hostnames below the name without the
    ``*`` label.
    """
    if rule.kind is RuleKind.WILDCARD:
        return ".".join(reversed(rule.labels[:-1]))
    return rule.name


class IncrementalGrouper:
    """Maintains hostname->site across PSL deltas.

    Construction cost is one full grouping plus a hostname-suffix
    index; each :meth:`apply` then costs proportional to the hostnames
    that could plausibly be affected by the delta, not the universe.
    """

    def __init__(self, rules: Iterable[Rule], hostnames: Iterable[str]) -> None:
        self._trie = SuffixTrie(rules)
        # Reversed, interned label tuples — the representation every
        # lookup wants.
        self._rlabels: dict[str, tuple[str, ...]] = {
            host: reversed_labels_of(host) for host in hostnames
        }
        # Index: dotted suffix -> hostnames having that suffix.  A rule
        # change at base B re-examines exactly index[B].
        self._by_suffix: dict[str, list[str]] = {}
        for host, rlabels in self._rlabels.items():
            name = rlabels[0]
            self._by_suffix.setdefault(name, []).append(host)
            for label in rlabels[1:]:
                name = f"{label}.{name}"
                self._by_suffix.setdefault(name, []).append(host)
        self._assignment: dict[str, str] = {
            host: site_for_reversed(self._trie, rlabels)
            for host, rlabels in self._rlabels.items()
        }
        self._site_sizes: Counter[str] = Counter(self._assignment.values())

    @property
    def assignment(self) -> Mapping[str, str]:
        """The live hostname->site mapping (do not mutate)."""
        return self._assignment

    @property
    def site_count(self) -> int:
        """Number of distinct sites right now."""
        return len(self._site_sizes)

    @property
    def hostname_count(self) -> int:
        """Number of hostnames being tracked."""
        return len(self._assignment)

    def metrics(self) -> SiteMetrics:
        """Current :class:`SiteMetrics`."""
        return SiteMetrics(site_count=self.site_count, hostname_count=self.hostname_count)

    def site_of(self, hostname: str) -> str:
        """Current site of a tracked hostname."""
        return self._assignment[hostname]

    def apply(self, delta: RuleDelta) -> list[str]:
        """Apply a version delta; returns hostnames whose site changed."""
        return [host for host, _, _ in self.apply_detailed(delta)]

    def apply_detailed(self, delta: RuleDelta) -> list[tuple[str, str, str]]:
        """Apply a delta; returns ``(hostname, old site, new site)`` rows.

        Old/new pairs convert directly into counter increments without
        another round of lookups.
        """
        self._trie.apply_delta(delta)

        candidates: set[str] = set()
        for rule in delta.added | delta.removed:
            candidates.update(self._by_suffix.get(_rule_base(rule), ()))

        changed: list[tuple[str, str, str]] = []
        for host in candidates:
            new_site = site_for_reversed(self._trie, self._rlabels[host])
            old_site = self._assignment[host]
            if new_site == old_site:
                continue
            self._assignment[host] = new_site
            self._site_sizes[old_site] -= 1
            if self._site_sizes[old_site] == 0:
                del self._site_sizes[old_site]
            self._site_sizes[new_site] += 1
            changed.append((host, old_site, new_site))
        return changed
