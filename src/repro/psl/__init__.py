"""The Public Suffix List engine.

Implements the full publicsuffix.org algorithm over ``.dat`` files:

* :mod:`repro.psl.rules` — the three rule kinds (normal, wildcard,
  exception) and the ICANN/PRIVATE section split;
* :mod:`repro.psl.parser` / :mod:`repro.psl.serialize` — reading and
  writing the ``public_suffix_list.dat`` wire format;
* :mod:`repro.psl.trie` / :mod:`repro.psl.matcher` — a reversed-label
  trie and the prevailing-rule lookup;
* :mod:`repro.psl.list` — the :class:`~repro.psl.list.PublicSuffixList`
  facade (public suffix, registrable domain, site equality);
* :mod:`repro.psl.fingerprint` — the one SHA-256 rule-set fingerprint
  every layer keys a list version by;
* :mod:`repro.psl.packed` — the flat, immutable, mmap-shareable trie
  encoding behind zero-copy snapshot serving;
* :mod:`repro.psl.intervals` — one trie answering a hostname under
  every version of a history at once (the classify version axis);
* :mod:`repro.psl.diff` — deltas between list versions, the unit of the
  incremental analyses in :mod:`repro.analysis`;
* :mod:`repro.psl.punycode` / :mod:`repro.psl.idna` — RFC 3492 and the
  IDNA mapping needed because PSL matching is defined over A-labels.
"""

from repro.psl.diff import RuleDelta, diff_rules
from repro.psl.errors import PslError, PslParseError, PunycodeError
from repro.psl.linter import LintFinding, LintReport, lint_psl
from repro.psl.list import PublicSuffixList, SuffixMatch
from repro.psl.packed import (
    PackedFormatError,
    PackedHistory,
    PackedTrie,
    pack_history,
    pack_rules,
)
from repro.psl.parser import parse_psl
from repro.psl.rules import Rule, RuleKind, Section
from repro.psl.serialize import serialize_psl

__all__ = [
    "LintFinding",
    "LintReport",
    "PackedFormatError",
    "PackedHistory",
    "PackedTrie",
    "PslError",
    "PslParseError",
    "PublicSuffixList",
    "PunycodeError",
    "Rule",
    "RuleDelta",
    "RuleKind",
    "Section",
    "SuffixMatch",
    "diff_rules",
    "lint_psl",
    "pack_history",
    "pack_rules",
    "parse_psl",
    "serialize_psl",
]
