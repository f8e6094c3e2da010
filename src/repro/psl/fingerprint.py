"""The canonical rule-set fingerprint, the one a list version is keyed by.

SHA-256 over the rules sorted by the full ``(labels, kind, section)``
key (so a name in both sections hashes alike under any hash seed), each
adding its text and section as two lines.  ``PublicSuffixList``, the
packed writer and ``VersionStore.commit`` all take it from here.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Iterable

from repro.psl.rules import Rule


def sort_key(rule: Rule) -> tuple:
    """Canonical rule order (the fingerprint order)."""
    return (rule.labels, rule.kind.value, rule.section.value)


def _chunk(rule: Rule) -> bytes:
    return rule.text.encode("utf-8") + b"\n" + rule.section.value.encode("ascii") + b"\n"


class SortedRuleSet:
    """A rule set kept in canonical order, with its fingerprint: one
    sorted list patched by each version's few-rule delta, where a
    history would otherwise sort ~9k rules afresh per version."""

    __slots__ = ("_keys", "_chunks")

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        ordered = sorted(set(rules), key=sort_key)
        self._keys = [sort_key(rule) for rule in ordered]
        self._chunks = [_chunk(rule) for rule in ordered]

    def add(self, rule: Rule) -> None:
        key = sort_key(rule)
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return  # identical rule already present
        self._keys.insert(index, key)
        self._chunks.insert(index, _chunk(rule))

    def remove(self, rule: Rule) -> None:
        key = sort_key(rule)
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            del self._keys[index]
            del self._chunks[index]

    def fingerprint(self) -> bytes:
        """The raw 32-byte SHA-256 of the set as it stands."""
        return hashlib.sha256(b"".join(self._chunks)).digest()


def rule_set_fingerprint(ordered: Iterable[Rule]) -> bytes:
    """The raw fingerprint of unique rules already in :func:`sort_key`
    order, hashed one at a time so no per-rule temporaries pile up."""
    digest = hashlib.sha256()
    for rule in ordered:
        digest.update(_chunk(rule))
    return digest.digest()
