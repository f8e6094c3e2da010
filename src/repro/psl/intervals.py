"""One interval-stamped rule trie for a whole list history.

:class:`IntervalTrie` holds every rule a history of versions ("slots")
ever carried once, in :class:`~repro.psl.trie.SuffixTrie`'s shape, each
trie slot stamped with the ``[lo, hi)`` slot spans its rules are live
in (several, when a rule leaves and returns or changes section).
:meth:`IntervalTrie.segments` answers a hostname under every slot at
once: its public-suffix length per slot, as :meth:`SuffixTrie.prevailing`
decides it, in piecewise-constant ``(first_slot, length)`` segments.
An index pickles as its stamped trie alone, without the segments its
walks resolved, so its bytes do not depend on what it has answered.
"""

from __future__ import annotations

from sys import intern
from typing import Iterable, Sequence

from repro.psl.diff import RuleDelta
from repro.psl.rules import Rule, RuleKind
from repro.psl.trie import WILDCARD_LABEL

#: ``(first_slot, length)`` pairs: ascending, from slot 0, lengths
#: differing between neighbours.
Segments = tuple[tuple[int, int], ...]

#: ``(lo, hi)`` slot spans, one per rule lifetime ending at a trie slot.
Spans = tuple[tuple[int, int], ...]


class _Node:
    __slots__ = ("children", "normal", "exception", "here", "beyond")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.normal: Spans = ()
        self.exception: Spans = ()
        # Resolved segments of walks ending here: with no label left
        # (``here``), or with a next label that has no child (``beyond``,
        # where this node's wildcard child counts).
        self.here: Segments | None = None
        self.beyond: Segments | None = None


#: A node without its resolved segments: ``(normal, exception, {label: child})``.
_Frozen = tuple[Spans, Spans, dict[str, "_Frozen"]]


def _freeze(node: _Node) -> _Frozen:
    return node.normal, node.exception, {
        label: _freeze(child) for label, child in node.children.items()
    }


def _thaw(frozen: _Frozen) -> _Node:
    node = _Node()
    node.normal, node.exception, children = frozen
    node.children = {label: _thaw(child) for label, child in children.items()}
    return node


class IntervalTrie:
    """Every slot of a rule-set history in one reversed-label trie.

    Slot 0 holds ``first``; slot ``k`` applies ``deltas[k - 1]`` to
    slot ``k - 1``, where removing an absent rule or adding a present
    one changes nothing, as for a set.
    """

    def __init__(self, first: Iterable[Rule], deltas: Sequence[RuleDelta] = ()) -> None:
        self.slots = len(deltas) + 1
        self._root = _Node()
        opened = dict.fromkeys(first, 0)
        for slot, delta in enumerate(deltas, 1):
            for rule in delta.removed:
                lo = opened.pop(rule, None)
                if lo is not None:
                    self._stamp(rule, lo, slot)
            for rule in delta.added:
                opened.setdefault(rule, slot)
        for rule, lo in opened.items():
            self._stamp(rule, lo, self.slots)

    def __getstate__(self) -> tuple[int, _Frozen]:
        return self.slots, _freeze(self._root)

    def __setstate__(self, state: tuple[int, _Frozen]) -> None:
        self.slots, frozen = state
        self._root = _thaw(frozen)

    def _stamp(self, rule: Rule, lo: int, hi: int) -> None:
        """Record one lifetime of ``rule`` on its trie slot."""
        node = self._root
        for label in rule.labels:
            child = node.children.get(label)
            if child is None:
                child = node.children[intern(label)] = _Node()
            node = child
        if rule.kind is RuleKind.EXCEPTION:
            node.exception += ((lo, hi),)
        else:
            node.normal += ((lo, hi),)

    def segments(self, reversed_labels: Sequence[str]) -> Segments:
        """The hostname's public-suffix length under every slot, for
        TLD-first labels as :meth:`SuffixTrie.prevailing` takes them."""
        node = self._root
        for depth, label in enumerate(reversed_labels):
            child = node.children.get(label)
            if child is None:
                if node.beyond is None:
                    node.beyond = self._resolve(reversed_labels[:depth], True)
                return node.beyond
            node = child
        if node.here is None:
            node.here = self._resolve(reversed_labels, False)
        return node.here

    def _resolve(self, path: Sequence[str], beyond: bool) -> Segments:
        """Slot by slot, :meth:`SuffixTrie.prevailing` over the
        candidates of a walk along ``path``."""
        # (lo, hi, suffix length) per rule lifetime; exceptions shallowest first.
        rules: list[tuple[int, int, int]] = []
        excepted: list[tuple[int, int, int]] = []
        node = self._root
        for depth in range(len(path) + beyond):
            wildcard = node.children.get(WILDCARD_LABEL)
            if wildcard is not None:
                for lo, hi in wildcard.normal:
                    rules.append((lo, hi, depth + 1))
            if depth < len(path):
                node = node.children[path[depth]]
                for lo, hi in node.exception:
                    excepted.append((lo, hi, depth))
                for lo, hi in node.normal:
                    rules.append((lo, hi, depth + 1))
        out: list[tuple[int, int]] = []
        for slot in sorted({0, *(bound for lo, hi, _ in rules + excepted for bound in (lo, hi))}):
            if slot >= self.slots:
                break
            live = [length for lo, hi, length in excepted if lo <= slot < hi]
            length = live[0] if live else max(
                [length for lo, hi, length in rules if lo <= slot < hi], default=1
            )
            if not out or out[-1][1] != length:
                out.append((slot, length))
        return tuple(out)
