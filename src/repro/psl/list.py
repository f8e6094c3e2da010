"""The :class:`PublicSuffixList` facade.

This is the public entry point of the PSL engine: construct it from
rules (usually via :func:`repro.psl.parser.parse_psl`), then ask it for
public suffixes, registrable domains (eTLD+1), and site membership.  It
implements the publicsuffix.org algorithm faithfully, including the
implicit default rule ``*`` for unknown TLDs.

Instances are immutable and hash by content, which the history and
dating layers rely on: two byte-identical vendored lists resolve to the
same fingerprint regardless of rule ordering or comments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.psl.idna import to_ascii
from repro.psl.rules import Rule, RuleKind, Section
from repro.psl.trie import SuffixTrie

if TYPE_CHECKING:  # pragma: no cover - import cycle (packed -> trie)
    from repro.psl.packed import PackedTrie


@dataclass(frozen=True, slots=True)
class SuffixMatch:
    """The full result of looking up one hostname.

    ``rule`` is None when only the implicit default rule ``*`` matched
    (an unknown TLD).  ``registrable_domain`` is None when the hostname
    *is itself* a public suffix — such names have no eTLD+1 and, in a
    browser, cannot carry site state at all.
    """

    hostname: str
    public_suffix: str
    registrable_domain: str | None
    rule: Rule | None

    @property
    def is_default_rule(self) -> bool:
        """True when no explicit rule matched (implicit ``*`` applied)."""
        return self.rule is None

    @property
    def section(self) -> Section | None:
        """Section of the prevailing rule, or None for the default rule."""
        return self.rule.section if self.rule is not None else None

    @property
    def site(self) -> str:
        """The site (privacy boundary) this hostname belongs to.

        For hostnames that are themselves public suffixes the suffix is
        used, mirroring how browsers treat e.g. ``github.io`` itself.
        """
        return self.registrable_domain or self.public_suffix


@dataclass(frozen=True, slots=True)
class ExtractResult:
    """A hostname split into subdomain / domain / suffix parts.

    The familiar tldextract-style decomposition:
    ``www.forums.bbc.co.uk`` -> ``('www.forums', 'bbc', 'co.uk')``.
    ``domain`` is empty when the hostname *is* a public suffix.
    """

    subdomain: str
    domain: str
    suffix: str

    @property
    def registrable_domain(self) -> str | None:
        """``domain.suffix``, or None without a domain part."""
        if not self.domain:
            return None
        return f"{self.domain}.{self.suffix}"

    @property
    def fqdn(self) -> str:
        """The full hostname, reassembled."""
        parts = [part for part in (self.subdomain, self.domain, self.suffix) if part]
        return ".".join(parts)


class PublicSuffixList:
    """An immutable rule set implementing the PSL lookup algorithm.

    >>> psl = PublicSuffixList([Rule.parse('com'), Rule.parse('co.uk')])
    >>> psl.registrable_domain('www.amazon.co.uk')
    'amazon.co.uk'
    >>> psl.public_suffix('maps.google.com')
    'com'
    """

    __slots__ = ("_rules", "_trie", "_fingerprint", "_rules_by_text")

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        unique = sorted(set(rules), key=lambda r: (r.labels, r.kind.value))
        self._rules: tuple[Rule, ...] | None = tuple(unique)
        self._trie = SuffixTrie(self._rules)
        self._rules_by_text: dict[str, Rule] | None = {
            rule.text: rule for rule in self._rules
        }
        digest = hashlib.sha256()
        for rule in self._rules:
            digest.update(rule.text.encode("utf-8"))
            digest.update(b"\n")
            digest.update(rule.section.value.encode("ascii"))
            digest.update(b"\n")
        self._fingerprint = digest.hexdigest()

    @classmethod
    def from_packed(cls, trie: "PackedTrie") -> "PublicSuffixList":
        """Wrap a :class:`~repro.psl.packed.PackedTrie` with zero copies.

        The lookup surface (``match``, ``any_suffix_below``, …) runs
        straight off the packed buffer; the rule tuple and text index
        are materialized lazily, only if a caller actually iterates
        rules.  The fingerprint is the one stamped at pack time, which
        equals ``PublicSuffixList(same_rules).fingerprint`` — so packed
        snapshots drop into fingerprint-keyed caches unchanged.
        """
        psl = object.__new__(cls)
        psl._trie = trie
        psl._fingerprint = trie.fingerprint
        psl._rules = None
        psl._rules_by_text = None
        return psl

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        if self._rules is None:
            return len(self._trie)
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __contains__(self, rule: "Rule | str") -> bool:
        """Membership by :class:`Rule` or by canonical rule text.

        Section is intentionally ignored for text lookups: callers
        asking "is ``github.io`` on this list?" care about the rule,
        not which division it lives in.
        """
        by_text = self._text_index()
        if isinstance(rule, Rule):
            return by_text.get(rule.text) == rule
        return Rule.parse(rule).text in by_text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PublicSuffixList):
            return NotImplemented
        return self._fingerprint == other._fingerprint

    def __hash__(self) -> int:
        return hash(self._fingerprint)

    def __repr__(self) -> str:
        return f"PublicSuffixList({len(self)} rules, {self._fingerprint[:12]})"

    # -- introspection ------------------------------------------------------

    def _text_index(self) -> dict[str, Rule]:
        if self._rules_by_text is None:
            self._rules_by_text = {rule.text: rule for rule in self.rules}
        return self._rules_by_text

    @property
    def rules(self) -> tuple[Rule, ...]:
        """All rules, sorted canonically (materialized lazily when packed)."""
        if self._rules is None:
            unique = sorted(
                set(self._trie.iter_rules()), key=lambda r: (r.labels, r.kind.value)
            )
            self._rules = tuple(unique)
        return self._rules

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the canonical rule serialization.

        Stable across comment changes, rule reordering, and whitespace —
        exactly the equivalence the list-dating layer needs.
        """
        return self._fingerprint

    def rules_in_section(self, section: Section) -> tuple[Rule, ...]:
        """Rules belonging to one division of the list."""
        return tuple(rule for rule in self.rules if rule.section is section)

    def component_histogram(self) -> dict[int, int]:
        """Map component-count -> number of rules (the Figure 2 breakdown)."""
        histogram: dict[int, int] = {}
        for rule in self.rules:
            histogram[rule.component_count] = histogram.get(rule.component_count, 0) + 1
        return histogram

    # -- the algorithm ------------------------------------------------------

    def lookup(self, name: str) -> tuple[str, str, str | None, Rule | None]:
        """The one lookup walk, over an already-normalized name.

        ``name`` must already be stripped, lowercased and free of a
        trailing root dot (what :func:`repro.net.hostname.normalize_or_reject`
        returns); this does one IDNA conversion and one trie walk, for
        dict and packed tries alike.  Returns ``(ascii name, public
        suffix, registrable domain, prevailing rule)`` — the registrable
        domain is None when the name is itself a public suffix, the rule
        None when only the implicit default rule ``*`` applied.

        >>> PublicSuffixList([Rule.parse('co.uk')]).lookup('www.bbc.co.uk')[:3]
        ('www.bbc.co.uk', 'co.uk', 'bbc.co.uk')
        """
        name = to_ascii(name)
        labels = name.split(".")
        rule = self._trie.prevailing(labels[::-1])
        if rule is None:
            suffix_length = 1  # implicit default rule '*'
        elif rule.kind is RuleKind.EXCEPTION:
            suffix_length = rule.component_count - 1
        else:
            suffix_length = rule.component_count
        cut = len(labels) - suffix_length
        suffix = ".".join(labels[cut:])
        registrable = ".".join(labels[cut - 1 :]) if cut > 0 else None
        return name, suffix, registrable, rule

    def match(self, hostname: str) -> SuffixMatch:
        """Run the full lookup for one hostname.

        The hostname is IDNA-normalized first; the returned
        ``public_suffix`` and ``registrable_domain`` are in A-label form.
        """
        name, suffix, registrable, rule = self.lookup(hostname.strip().rstrip(".").lower())
        return SuffixMatch(
            hostname=name,
            public_suffix=suffix,
            registrable_domain=registrable,
            rule=rule,
        )

    def public_suffix(self, hostname: str) -> str:
        """The public suffix (eTLD) of ``hostname``.

        >>> PublicSuffixList([Rule.parse('co.uk')]).public_suffix('a.b.co.uk')
        'co.uk'
        """
        return self.match(hostname).public_suffix

    def registrable_domain(self, hostname: str) -> str | None:
        """The registrable domain (eTLD+1), or None if ``hostname`` is a suffix."""
        return self.match(hostname).registrable_domain

    def site_of(self, hostname: str) -> str:
        """The site key used for privacy-boundary grouping."""
        return self.match(hostname).site

    def extract(self, hostname: str) -> ExtractResult:
        """Split a hostname into (subdomain, domain, suffix) parts.

        >>> psl = PublicSuffixList([Rule.parse('co.uk')])
        >>> psl.extract('www.forums.bbc.co.uk')
        ExtractResult(subdomain='www.forums', domain='bbc', suffix='co.uk')
        """
        match = self.match(hostname)
        suffix_labels = match.public_suffix.count(".") + 1
        labels = match.hostname.split(".")
        head = labels[: len(labels) - suffix_labels]
        domain = head[-1] if head else ""
        subdomain = ".".join(head[:-1]) if len(head) > 1 else ""
        return ExtractResult(subdomain=subdomain, domain=domain, suffix=match.public_suffix)

    def is_public_suffix(self, hostname: str) -> bool:
        """True when ``hostname`` is exactly a public suffix.

        >>> PublicSuffixList([Rule.parse('co.uk')]).is_public_suffix('co.uk')
        True
        """
        match = self.match(hostname)
        return match.public_suffix == match.hostname

    def any_suffix_below(self, hostname: str) -> bool:
        """Whether any rule names a suffix strictly below ``hostname``.

        On the live list every ancestor of a suffix is itself a suffix,
        but nothing enforces that: a rule like ``s3.dualstack.region``
        can exist while its parents stay unlisted — the unlisted-parent
        anomaly the paper's taxonomy flags.  State scoped to such a
        parent is readable by the suffix host, so the cookie jar treats
        these domains like supercookies.

        >>> psl = PublicSuffixList([Rule.parse('cdn.example.net')])
        >>> psl.any_suffix_below('example.net')
        True
        >>> psl.any_suffix_below('cdn.example.net')
        False
        """
        name = to_ascii(hostname.strip().rstrip(".").lower())
        return self._trie.has_rule_below(tuple(reversed(name.split("."))))

    def same_site(self, first: str, second: str) -> bool:
        """Whether two hostnames fall inside the same privacy boundary.

        This is the browser's schemeless same-site check, the decision
        the paper's Figure 1 illustrates.
        """
        return self.site_of(first) == self.site_of(second)

    # -- derivation ---------------------------------------------------------

    def with_rules(self, added: Iterable[Rule] = (), removed: Iterable[Rule] = ()) -> "PublicSuffixList":
        """A new list with ``added`` inserted and ``removed`` dropped."""
        removal = set(removed)
        rules = [rule for rule in self.rules if rule not in removal]
        rules.extend(added)
        return PublicSuffixList(rules)
