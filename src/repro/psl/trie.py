"""Reversed-label trie over PSL rules.

Rules are inserted by their labels in TLD-first order, so lookups walk a
hostname's labels right to left.  Wildcard labels (``*``) are always the
leftmost label of a rule (deepest trie node) in the real list, which the
rule parser enforces, so the walk never has to branch: at each node it
checks the exact child and, for the *next* label only, the wildcard
child.

The trie is the fast path behind :class:`repro.psl.list.PublicSuffixList`
and the subject of the lookup ablation benchmark (trie vs. naive scan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.psl.rules import Rule, RuleKind

if TYPE_CHECKING:  # pragma: no cover - import cycle (diff -> list -> trie)
    from repro.psl.diff import RuleDelta

WILDCARD_LABEL = "*"


@dataclass(slots=True)
class TrieNode:
    """One trie node; ``rule`` is set when a rule terminates here."""

    children: dict[str, "TrieNode"] = field(default_factory=dict)
    rule: Rule | None = None
    exception_rule: Rule | None = None

    def child(self, label: str) -> "TrieNode":
        """Get or create the child node for ``label``."""
        node = self.children.get(label)
        if node is None:
            node = TrieNode()
            self.children[label] = node
        return node


class SuffixTrie:
    """A trie mapping reversed rule labels to the rules ending there."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._root = TrieNode()
        self._size = 0
        for rule in rules:
            self.insert(rule)

    def __len__(self) -> int:
        return self._size

    def node_count(self) -> int:
        """Number of trie nodes, root included (structural size)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def insert(self, rule: Rule) -> None:
        """Insert a rule; re-inserting an identical rule is a no-op.

        Labels are interned on the way in: hostname labels interned by
        :func:`~repro.webgraph.sites.reversed_labels_of` then hit the
        children dictionaries with pointer-equal keys, which keeps the
        lookup hot path on the fast identity compare.
        """
        node = self._root
        for label in rule.labels:
            node = node.child(intern(label))
        if rule.kind is RuleKind.EXCEPTION:
            if node.exception_rule == rule:
                return
            if node.exception_rule is None:
                self._size += 1
            node.exception_rule = rule
        else:
            if node.rule == rule:
                return
            if node.rule is None:
                self._size += 1
            node.rule = rule

    def remove(self, rule: Rule) -> bool:
        """Remove a rule if present; returns True when something was removed.

        Nodes left childless and rule-less by the removal are pruned on
        the unwind: the delta-driven sweep keeps one trie alive across
        a whole list history (1,142 versions of add/remove churn), so
        without pruning the node count would grow toward the union of
        every rule the history ever carried instead of tracking the
        live rule set.
        """
        node = self._root
        path: list[tuple[TrieNode, str]] = []
        for label in rule.labels:
            child = node.children.get(label)
            if child is None:
                return False
            path.append((node, label))
            node = child
        if rule.kind is RuleKind.EXCEPTION:
            if node.exception_rule != rule:
                return False
            node.exception_rule = None
        else:
            if node.rule != rule:
                return False
            node.rule = None
        self._size -= 1
        # Prune the unwind: drop nodes that no longer anchor anything.
        for parent, label in reversed(path):
            if node.children or node.rule is not None or node.exception_rule is not None:
                break
            del parent.children[label]
            node = parent
        return True

    def apply_delta(self, delta: "RuleDelta") -> None:
        """Apply one version delta in place (removals first, then adds).

        This is what lets a replay keep a single trie across an entire
        list history instead of rebuilding per version: applying the
        1,141 deltas of the paper's history costs a few thousand node
        walks total, versus ~10k inserts per version rebuilt.  Order
        within a delta is irrelevant — ``added`` and ``removed`` are
        disjoint by :class:`~repro.psl.diff.RuleDelta`'s invariant.
        """
        for rule in delta.removed:
            self.remove(rule)
        for rule in delta.added:
            self.insert(rule)

    def has_rule_below(self, reversed_labels: Sequence[str]) -> bool:
        """Whether any rule terminates strictly below this exact name.

        Walks exact labels only (no wildcard expansion of the *query*):
        a rule is "below" ``a.b`` when its name ends with ``.a.b`` —
        including a wildcard child such as ``*.a.b``.  Used by the
        cookie jar to refuse domains that contain a public suffix
        beneath them, the unlisted-parent anomaly the paper studies.
        """
        node = self._root
        for label in reversed_labels:
            child = node.children.get(label)
            if child is None:
                return False
            node = child
        stack = list(node.children.values())
        while stack:
            below = stack.pop()
            if below.rule is not None or below.exception_rule is not None:
                return True
            stack.extend(below.children.values())
        return False

    def iter_rules(self) -> Iterator[Rule]:
        """Yield every stored rule in depth-first order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.rule is not None:
                yield node.rule
            if node.exception_rule is not None:
                yield node.exception_rule
            stack.extend(node.children.values())

    def matches(self, reversed_labels: Sequence[str]) -> list[Rule]:
        """All rules matching a hostname given as reversed labels.

        A rule matches when the hostname ends with the rule's labels,
        with ``*`` matching exactly one arbitrary label
        (publicsuffix.org algorithm, step 1).
        """
        found: list[Rule] = []
        node = self._root
        for index, label in enumerate(reversed_labels):
            wildcard = node.children.get(WILDCARD_LABEL)
            if wildcard is not None and wildcard.rule is not None:
                found.append(wildcard.rule)
            next_node = node.children.get(label)
            if next_node is None:
                break
            node = next_node
            if node.rule is not None:
                found.append(node.rule)
            if node.exception_rule is not None:
                found.append(node.exception_rule)
            if index + 1 == len(reversed_labels):
                # Hostname fully consumed; a wildcard child would need
                # one more label, so it cannot match past this point.
                break
        else:  # pragma: no cover - loop always breaks or exhausts
            pass
        return found

    def prevailing(self, reversed_labels: Sequence[str]) -> Rule | None:
        """The prevailing rule for a hostname, or None for the default rule.

        Exception rules beat all others; otherwise the rule with the
        most labels wins (publicsuffix.org algorithm, steps 2-4).  The
        walk tracks the best candidate inline rather than materializing
        the full match list.
        """
        best: Rule | None = None
        best_count = 0
        node = self._root
        for index, label in enumerate(reversed_labels):
            wildcard = node.children.get(WILDCARD_LABEL)
            if wildcard is not None and wildcard.rule is not None:
                count = wildcard.rule.component_count
                if count > best_count:
                    best, best_count = wildcard.rule, count
            next_node = node.children.get(label)
            if next_node is None:
                break
            node = next_node
            if node.exception_rule is not None:
                return node.exception_rule
            if node.rule is not None:
                count = node.rule.component_count
                if count > best_count:
                    best, best_count = node.rule, count
            if index + 1 == len(reversed_labels):
                break
        return best


def naive_prevailing(rules: Iterable[Rule], reversed_labels: Sequence[str]) -> Rule | None:
    """Reference implementation: scan every rule, no index.

    Used by the property tests as a correctness oracle for the trie and
    by the ablation benchmark to quantify the trie's speedup.
    """
    best: Rule | None = None
    best_count = 0
    n = len(reversed_labels)
    for rule in rules:
        labels = rule.labels
        if len(labels) > n:
            continue
        matched = all(
            pattern == WILDCARD_LABEL or pattern == reversed_labels[i]
            for i, pattern in enumerate(labels)
        )
        if not matched:
            continue
        if rule.kind is RuleKind.EXCEPTION:
            return rule
        if rule.component_count > best_count:
            best, best_count = rule, rule.component_count
    return best
