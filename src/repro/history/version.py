"""Per-version metadata for the PSL history."""

from __future__ import annotations

import datetime
import functools
import hashlib
from dataclasses import dataclass, field

from repro.psl.diff import RuleDelta


def commit_hash(parent: str, date: datetime.date, delta: RuleDelta) -> str:
    """Content-address a version, git-style.

    The hash chains over the parent hash, the commit date, and the
    canonical text of the delta, so identical histories produce
    identical hashes regardless of how they were constructed.
    """
    digest = hashlib.sha256()
    digest.update(parent.encode("ascii"))
    digest.update(date.isoformat().encode("ascii"))
    for prefix, rules in (("+", delta.added), ("-", delta.removed)):
        for text in sorted(rule.text for rule in rules):
            digest.update(f"{prefix}{text}\n".encode("utf-8"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=65536)
def rule_digest(text: str) -> int:
    """A 128-bit digest of one rule's canonical text.

    XOR-combining these per-rule digests yields an order-independent
    digest of a whole rule set that the store maintains incrementally —
    the key that makes dating a vendored list an O(1) lookup instead of
    a scan over 1,142 materialized versions.  Cached: the same ~10k
    rule texts recur across every version and every vendored copy.
    """
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:16], "big")


@dataclass(frozen=True, slots=True)
class PslVersion:
    """One version of the list: an index into the store plus metadata.

    The rule set itself is *not* stored here — materialize it through
    :meth:`repro.history.store.VersionStore.rules_at` or ``checkout``.
    ``fingerprint`` is the version's identity wherever a result is keyed
    to it: the 64-hex :mod:`repro.psl.fingerprint` SHA-256, stamped once
    at commit.  ``set_digest`` is the order-independent XOR digest (see
    :func:`rule_digest`) that only indexes versions for lookup.
    """

    index: int
    date: datetime.date
    commit: str
    delta: RuleDelta = field(repr=False)
    rule_count: int
    set_digest: int = 0
    message: str = ""
    fingerprint: str = ""

    def age_at(self, reference: datetime.date) -> int:
        """List age in days at ``reference`` (Figure 3's x-axis)."""
        return (reference - self.date).days
