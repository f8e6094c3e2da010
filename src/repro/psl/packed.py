"""Packed zero-copy snapshot tries: a flat, immutable trie encoding.

The dict-of-dicts :class:`~repro.psl.trie.SuffixTrie` is ideal for the
delta-replay sweep (cheap in-place mutation) and terrible for a server
holding 1,142 versions resident: every node pays Python object
overhead, and none of it can be shared between processes.  This module
is the other half of the trade: a *compiled* trie — every node, child
block, and rule record packed into one contiguous ``bytes`` buffer —
that is

* **immutable** — the buffer is the data structure; there is nothing
  to mutate and therefore nothing to lock;
* **zero-deserialization** — readers walk the buffer through
  ``memoryview.cast("I")``; loading a 1,142-version history is an
  ``mmap`` call, not minutes of trie builds;
* **shared** — N processes mapping the same artifact file share one
  physical copy of the whole history (the page cache), and all
  versions inside one buffer share a single string table, so the ~10k
  rule labels that recur across every version are stored once.

Buffer layout (format ``PSLPAK1``, all integers little-endian)::

    header (64 B)   magic, format version, crc32, total length,
                    version/label counts, wildcard label id,
                    section offsets
    label offsets   (label_count + 1) x u32 into the label blob
    label blob      concatenated ASCII labels, 4-byte padded
    version index   version_count x 8 u32: node/rule/rule-label
                    counts and byte offsets per version
    fingerprints    version_count x 32 raw SHA-256 bytes (the same
                    canonical rule-set fingerprint PublicSuffixList
                    computes)
    per version     nodes, rule records, rule-label ids (see below)

Per-version node storage is struct-of-arrays, five ``u32`` arrays of
``node_count`` entries each — ``label``, ``child_start``,
``child_count``, ``rule``, ``exception`` — so a reader casts each
array once and then does pure integer indexing.  Children of a node
occupy one contiguous block sorted by label id; label ids are assigned
in lexicographic label order, so binary search over ids *is* binary
search over labels, and the wildcard label ``*`` (which sorts below
every LDH label) is always a block's first entry — an O(1) check.
The ``child_count`` word's low 29 bits are the count; its high bits
flag "wildcard child present" / "rule present" / "exception present",
so the walk learns a typical node's whole shape from one read.

Rule records are ``(meta, labels_start)`` pairs: ``meta`` packs the
rule kind (2 bits), section (1 bit), and label count; ``labels_start``
indexes the flat rule-label-id array.  :class:`PackedTrie` materializes
a real :class:`~repro.psl.rules.Rule` only when one is *returned*, and
caches it by rule id — so steady-state lookups are integer walks that
hand back pointer-identical rule objects, bit-identical to what the
dict trie answers.

Integrity mirrors the artifact store's posture: a truncated or
bit-flipped buffer fails loading with :class:`PackedFormatError`
(magic, length, and CRC-32 checks) — never a silent wrong answer.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.psl.errors import PslError
from repro.psl.fingerprint import rule_set_fingerprint, sort_key
from repro.psl.rules import Rule, RuleKind, Section
from repro.psl.trie import WILDCARD_LABEL, SuffixTrie, TrieNode

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a package cycle)
    from repro.history.store import VersionStore

__all__ = [
    "PackedBufferInUseError",
    "PackedFormatError",
    "PackedHistory",
    "PackedTrie",
    "dict_trie_bytes",
    "estimated_dict_trie_bytes",
    "pack_history",
    "pack_rules",
]

MAGIC = b"PSLPAK1\0"
FORMAT_VERSION = 1
#: The "no entry" sentinel for every u32 field (rule ids, wildcard id).
NONE_U32 = 0xFFFFFFFF

#: The ``child_count`` word packs presence flags into its high bits so
#: the hot walk learns everything about a node from ONE memoryview
#: read: whether a wildcard child leads the block, and whether the
#: node carries a normal/exception rule (the rule arrays still store
#: their NONE_U32 sentinels; the flags are a redundant accelerator).
_CC_WILDCARD = 0x8000_0000
_CC_RULE = 0x4000_0000
_CC_EXCEPTION = 0x2000_0000
_CC_COUNT = 0x1FFF_FFFF

#: Header: magic, format version, crc32, total length, version count,
#: label count, wildcard id, label-offsets offset, label-blob offset,
#: label-blob length, version-index offset, fingerprints offset,
#: 8 reserved bytes.
_HEADER = struct.Struct("<8sIIQ8I8x")
_HEADER_SIZE = _HEADER.size  # 64
#: CRC-32 covers everything after the crc field itself.
_CRC_START = 16

#: Per-version index record: node_count, nodes_off, rule_count,
#: rules_off, rule_label_count, rule_labels_off, two reserved words.
_VERSION_WORDS = 8

_KIND_CODES = {RuleKind.NORMAL: 0, RuleKind.WILDCARD: 1, RuleKind.EXCEPTION: 2}
_KINDS = (RuleKind.NORMAL, RuleKind.WILDCARD, RuleKind.EXCEPTION)
_SECTION_CODES = {Section.ICANN: 0, Section.PRIVATE: 1}
_SECTIONS = (Section.ICANN, Section.PRIVATE)


class PackedFormatError(PslError):
    """A packed buffer failed validation (magic, length, CRC, bounds).

    Raised *before* any answer is served off a suspect buffer — a
    corrupt snapshot must be unloadable, never subtly wrong.
    """


class PackedBufferInUseError(RuntimeError):
    """``close()`` was called while packed tries still hold buffer views.

    The mmap behind a :class:`PackedHistory` can only be unmapped once
    every exported ``memoryview`` is gone — i.e. after all snapshots
    built over it have been evicted *and* garbage collected.
    """


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _flatten(
    root: TrieNode, label_id: dict[str, int]
) -> tuple[array, array, array, array, array, array, array]:
    """Compile one live dict trie into the packed arrays.

    Breadth-first with child blocks reserved contiguously: when node
    ``i`` is processed its children are appended as one run sorted by
    label id, so ``(child_start[i], child_count[i])`` describes a
    binary-searchable slice.
    """
    labels = array("I", (NONE_U32,))
    child_start = array("I")
    child_count = array("I")
    rule_ids = array("I")
    exc_ids = array("I")
    rules = array("I")  # (meta, labels_start) pairs
    rule_labels = array("I")

    wildcard = label_id.get(WILDCARD_LABEL, -1)
    order: list[TrieNode] = [root]
    position = 0
    while position < len(order):
        node = order[position]
        position += 1
        children = node.children
        child_start.append(len(order))
        flags = 0
        if node.rule is not None:
            flags |= _CC_RULE
        if node.exception_rule is not None:
            flags |= _CC_EXCEPTION
        if children:
            block = sorted((label_id[text], child) for text, child in children.items())
            if block[0][0] == wildcard:
                flags |= _CC_WILDCARD
            for lid, child in block:
                labels.append(lid)
                order.append(child)
        child_count.append(len(children) | flags)
        for slot, rule in ((rule_ids, node.rule), (exc_ids, node.exception_rule)):
            if rule is None:
                slot.append(NONE_U32)
                continue
            slot.append(len(rules) // 2)
            meta = (
                _KIND_CODES[rule.kind]
                | (_SECTION_CODES[rule.section] << 2)
                | (len(rule.labels) << 3)
            )
            rules.append(meta)
            rules.append(len(rule_labels))
            rule_labels.extend(label_id[text] for text in rule.labels)
    return labels, child_start, child_count, rule_ids, exc_ids, rules, rule_labels


def _assemble(
    label_list: Sequence[str],
    versions: Iterable[tuple[tuple[array, ...], bytes]],
) -> bytes:
    """Glue the label table and per-version arrays into one blob."""
    label_blob = bytearray()
    label_offsets = array("I")
    for text in label_list:
        label_offsets.append(len(label_blob))
        label_blob += text.encode("ascii")
    label_offsets.append(len(label_blob))
    while len(label_blob) % 4:
        label_blob += b"\0"

    wildcard_id = NONE_U32
    index = bisect_left(label_list, WILDCARD_LABEL) if label_list else 0
    if index < len(label_list) and label_list[index] == WILDCARD_LABEL:
        wildcard_id = index

    version_records = array("I")
    fingerprints = bytearray()
    bodies: list[bytes] = []
    materialized = list(versions)

    label_offsets_off = _HEADER_SIZE
    label_blob_off = label_offsets_off + 4 * len(label_offsets)
    version_index_off = label_blob_off + len(label_blob)
    fingerprints_off = version_index_off + 4 * _VERSION_WORDS * len(materialized)
    body_off = fingerprints_off + 32 * len(materialized)
    while body_off % 4:  # keep per-version u32 arrays aligned
        body_off += 1
    fingerprint_pad = body_off - (fingerprints_off + 32 * len(materialized))

    cursor = body_off
    for arrays, fingerprint in materialized:
        labels, child_start, child_count, rule_ids, exc_ids, rules, rule_labels = arrays
        node_count = len(labels)
        nodes_off = cursor
        rules_off = nodes_off + 4 * 5 * node_count
        rule_labels_off = rules_off + 4 * len(rules)
        cursor = rule_labels_off + 4 * len(rule_labels)
        version_records.extend(
            (
                node_count,
                nodes_off,
                len(rules) // 2,
                rules_off,
                len(rule_labels),
                rule_labels_off,
                0,
                0,
            )
        )
        fingerprints += fingerprint
        body = bytearray()
        for part in arrays:
            body += part.tobytes()
        bodies.append(bytes(body))

    total = cursor
    blob = bytearray(
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            0,  # crc placeholder
            total,
            len(materialized),
            len(label_list),
            wildcard_id,
            label_offsets_off,
            label_blob_off,
            len(label_blob),
            version_index_off,
            fingerprints_off,
        )
    )
    blob += label_offsets.tobytes()
    blob += label_blob
    blob += version_records.tobytes()
    blob += fingerprints
    blob += b"\0" * fingerprint_pad
    for body in bodies:
        blob += body
    assert len(blob) == total, (len(blob), total)
    crc = zlib.crc32(memoryview(blob)[_CRC_START:])
    struct.pack_into("<I", blob, 12, crc)
    return bytes(blob)


def pack_rules(rules: Iterable[Rule]) -> bytes:
    """Pack one rule set as a single-version buffer.

    The convenience path for tests and single-snapshot tools; whole
    histories should go through :func:`pack_history` so every version
    shares one string table.
    """
    rule_list = sorted(set(rules), key=sort_key)
    label_set: set[str] = set()
    for rule in rule_list:
        label_set.update(rule.labels)
    label_list = sorted(label_set)
    label_id = {text: index for index, text in enumerate(label_list)}
    trie = SuffixTrie(rule_list)
    return _assemble(
        label_list, [(_flatten(trie._root, label_id), rule_set_fingerprint(rule_list))]
    )


def pack_history(store: "VersionStore", *, indexes: Sequence[int] | None = None) -> bytes:
    """Compile a whole version history into one packed buffer.

    With ``indexes=None`` every version is packed by replaying the
    store's deltas over a single live trie (one insert/remove per
    changed rule, 1,142 flattens — not 1,142 trie rebuilds).  An
    explicit index subset materializes each requested version instead.

    Per-version fingerprints in the buffer are the stamps
    :meth:`~repro.history.store.VersionStore.commit` wrote
    (``PslVersion.fingerprint``), which equal
    ``PublicSuffixList(rules).fingerprint`` for the same rule set, so
    packed snapshots drop into every fingerprint-keyed cache unchanged.
    """
    if indexes is not None:
        chosen = sorted(set(int(index) % len(store) for index in indexes))
        rule_sets = [store.rules_at(index) for index in chosen]
        label_set: set[str] = set()
        for rules in rule_sets:
            for rule in rules:
                label_set.update(rule.labels)
        label_list = sorted(label_set)
        label_id = {text: index for index, text in enumerate(label_list)}

        def versions() -> Iterator[tuple[tuple[array, ...], bytes]]:
            for index, rules in zip(chosen, rule_sets):
                trie = SuffixTrie(sorted(rules, key=sort_key))
                stamp = bytes.fromhex(store.version(index).fingerprint)
                yield _flatten(trie._root, label_id), stamp

        return _assemble(label_list, versions())

    label_set = set()
    for version in store:
        for rule in version.delta.added:
            label_set.update(rule.labels)
    label_list = sorted(label_set)
    label_id = {text: index for index, text in enumerate(label_list)}

    def replayed() -> Iterator[tuple[tuple[array, ...], bytes]]:
        live = SuffixTrie()
        for version in store:
            for rule in version.delta.removed:
                live.remove(rule)
            for rule in version.delta.added:
                live.insert(rule)
            yield _flatten(live._root, label_id), bytes.fromhex(version.fingerprint)

    return _assemble(label_list, replayed())


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


class PackedTrie:
    """A read-only trie view over one version inside a packed buffer.

    Answers :meth:`prevailing`, :meth:`matches`, and
    :meth:`has_rule_below` bit-identically to
    :class:`~repro.psl.trie.SuffixTrie` over the same rules, walking
    u32 arrays with binary search over sorted label ids.  Drop one into
    :meth:`repro.psl.list.PublicSuffixList.from_packed` for the full
    lookup surface.
    """

    __slots__ = (
        "_history",
        "_labels",
        "_child_start",
        "_child_count",
        "_rule_ids",
        "_exc_ids",
        "_rules_mv",
        "_rule_labels",
        "_rule_cache",
        "_fingerprint",
        "_root_index",
        "node_count",
    )

    def __init__(
        self,
        history: "PackedHistory",
        arrays: tuple,
        rule_count: int,
        fingerprint: str,
    ) -> None:
        self._history = history
        (
            self._labels,
            self._child_start,
            self._child_count,
            self._rule_ids,
            self._exc_ids,
            self._rules_mv,
            self._rule_labels,
        ) = arrays
        self.node_count = len(self._labels)
        self._rule_cache: list[Rule | None] = [None] * rule_count
        self._root_index: dict[int, int] | None = None
        self._fingerprint = fingerprint

    def __len__(self) -> int:
        """Number of rules this version carries."""
        return len(self._rule_cache)

    @property
    def fingerprint(self) -> str:
        """The canonical rule-set fingerprint stored at pack time."""
        return self._fingerprint

    # -- rule materialization ------------------------------------------------

    def _rule(self, rule_id: int) -> Rule:
        rule = self._rule_cache[rule_id]
        if rule is None:
            meta = self._rules_mv[2 * rule_id]
            start = self._rules_mv[2 * rule_id + 1]
            count = meta >> 3
            names = self._history._label_strings()
            ids = self._rule_labels
            rule = Rule(
                labels=tuple(names[ids[start + i]] for i in range(count)),
                kind=_KINDS[meta & 3],
                section=_SECTIONS[(meta >> 2) & 1],
            )
            self._rule_cache[rule_id] = rule
        return rule

    def iter_rules(self) -> Iterator[Rule]:
        """Yield every stored rule (rule-record order)."""
        for rule_id in range(len(self._rule_cache)):
            yield self._rule(rule_id)

    # -- the lookup algorithms (mirrors of SuffixTrie) -----------------------

    def _find_child(self, node: int, label_id: int) -> int:
        """Binary search ``node``'s child block; -1 when absent."""
        labels = self._labels
        low = self._child_start[node]
        high = low + (self._child_count[node] & _CC_COUNT)
        position = bisect_left(labels, label_id, low, high)
        if position < high and labels[position] == label_id:
            return position
        return -1

    def _build_root_index(self) -> dict[int, int]:
        """label id -> node position for the root's children, built lazily.

        The root block is by far the widest (every TLD), so its binary
        search dominates lookup cost; one small per-trie dict replaces
        ~11 probe reads per hostname with a single hash lookup.
        """
        labels = self._labels
        start = self._child_start[0]
        index = {
            labels[i]: i
            for i in range(start, start + (self._child_count[0] & _CC_COUNT))
        }
        self._root_index = index
        return index

    def prevailing(self, reversed_labels: Sequence[str]) -> Rule | None:
        """The prevailing rule for a hostname, or None (default rule).

        The hot loop budget is memoryview reads: each node's flags ride
        in its ``child_count`` word (read once on descent), the root's
        wide child block resolves through the lazy hash index, and
        deeper (narrow) blocks binary-search via the C ``bisect``.
        """
        ids_get = self._history._label_id_map().get
        labels = self._labels
        child_start = self._child_start
        child_count = self._child_count
        rule_ids = self._rule_ids
        exc_ids = self._exc_ids
        rules_mv = self._rules_mv
        root_index = self._root_index
        root_get = (
            root_index.get if root_index is not None else self._build_root_index().get
        )
        best = -1
        best_count = 0
        node = 0
        meta = child_count[0]
        last = len(reversed_labels) - 1
        for index, label in enumerate(reversed_labels):
            if meta & _CC_WILDCARD:
                # The wildcard child leads the block and matches any
                # label — including ones absent from the label table.
                wildcard_rule = rule_ids[child_start[node]]
                if wildcard_rule != NONE_U32:
                    rule_len = rules_mv[2 * wildcard_rule] >> 3
                    if rule_len > best_count:
                        best, best_count = wildcard_rule, rule_len
            label_id = ids_get(label)
            if label_id is None:
                break
            if index:
                low = child_start[node]
                high = low + (meta & _CC_COUNT)
                position = bisect_left(labels, label_id, low, high)
                if position == high or labels[position] != label_id:
                    break
                node = position
            else:
                position = root_get(label_id)
                if position is None:
                    break
                node = position
            meta = child_count[node]
            if meta & _CC_EXCEPTION:
                return self._rule(exc_ids[node])
            if meta & _CC_RULE:
                rule_id = rule_ids[node]
                rule_len = rules_mv[2 * rule_id] >> 3
                if rule_len > best_count:
                    best, best_count = rule_id, rule_len
            if index == last:
                break
        return self._rule(best) if best >= 0 else None

    def matches(self, reversed_labels: Sequence[str]) -> list[Rule]:
        """All rules matching a hostname (SuffixTrie order preserved)."""
        found: list[Rule] = []
        ids = self._history._label_id_map()
        child_start = self._child_start
        child_count = self._child_count
        rule_ids = self._rule_ids
        exc_ids = self._exc_ids
        none = NONE_U32
        node = 0
        last = len(reversed_labels) - 1
        for index, label in enumerate(reversed_labels):
            if child_count[node] & _CC_WILDCARD:
                rule_id = rule_ids[child_start[node]]
                if rule_id != none:
                    found.append(self._rule(rule_id))
            label_id = ids.get(label)
            next_node = -1 if label_id is None else self._find_child(node, label_id)
            if next_node < 0:
                break
            node = next_node
            rule_id = rule_ids[node]
            if rule_id != none:
                found.append(self._rule(rule_id))
            exc_id = exc_ids[node]
            if exc_id != none:
                found.append(self._rule(exc_id))
            if index == last:
                break
        return found

    def has_rule_below(self, reversed_labels: Sequence[str]) -> bool:
        """Whether any rule terminates strictly below this exact name."""
        ids = self._history._label_id_map()
        node = 0
        for label in reversed_labels:
            label_id = ids.get(label)
            if label_id is None:
                return False
            node = self._find_child(node, label_id)
            if node < 0:
                return False
        child_start = self._child_start
        child_count = self._child_count
        start = child_start[node]
        stack = list(range(start, start + (child_count[node] & _CC_COUNT)))
        while stack:
            below = stack.pop()
            meta = child_count[below]
            if meta & (_CC_RULE | _CC_EXCEPTION):
                return True
            start = child_start[below]
            stack.extend(range(start, start + (meta & _CC_COUNT)))
        return False


class PackedHistory:
    """A validated packed buffer holding one or many trie versions.

    Construction validates the envelope — magic, declared length
    against the real buffer, CRC-32 over the payload — and raises
    :class:`PackedFormatError` on any mismatch.  :meth:`trie` then
    hands out :class:`PackedTrie` views with no further copying.

    **mmap lifecycle.**  :meth:`load` maps the artifact file read-only;
    every process mapping the same file shares its pages.  The map can
    only be released once no :class:`PackedTrie` (and therefore no
    snapshot) still holds a view into it: :meth:`close` releases the
    container's own views and raises :class:`PackedBufferInUseError`
    if exported views remain — evict snapshots first, let the garbage
    collector reap them, then close.
    """

    def __init__(self, buffer, *, path: str | None = None, _mmap: mmap.mmap | None = None,
                 _crc: int | None = None) -> None:
        self._buffer = buffer
        self._mmap = _mmap
        self._path = path
        self._closed = False
        view = memoryview(buffer)
        self._mv = view
        size = len(view)
        if size < _HEADER_SIZE:
            self._release()
            raise PackedFormatError(
                f"packed buffer too short for a header ({size} < {_HEADER_SIZE} bytes)"
            )
        (
            magic,
            format_version,
            crc,
            total,
            version_count,
            label_count,
            wildcard_id,
            label_offsets_off,
            label_blob_off,
            label_blob_len,
            version_index_off,
            fingerprints_off,
        ) = _HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            self._release()
            raise PackedFormatError(f"bad magic {magic!r} (expected {MAGIC!r})")
        if format_version != FORMAT_VERSION:
            self._release()
            raise PackedFormatError(f"unsupported packed format version {format_version}")
        if total != size:
            self._release()
            raise PackedFormatError(
                f"length mismatch: header declares {total} bytes, buffer has {size}"
                " (truncated or padded artifact)"
            )
        # load() hands in the CRC it streamed off the file, so checking
        # a mapped buffer never faults its pages in.
        actual_crc = zlib.crc32(view[_CRC_START:]) if _crc is None else _crc
        if actual_crc != crc:
            self._release()
            raise PackedFormatError(
                f"checksum mismatch: header crc32 {crc:#010x}, payload {actual_crc:#010x}"
                " (bit-flipped artifact)"
            )
        self._version_count = version_count
        self._label_count = label_count
        self._wildcard_id = wildcard_id
        self._label_blob_off = label_blob_off
        self._label_blob_len = label_blob_len
        self._fingerprints_off = fingerprints_off
        try:
            self._label_offsets = view[
                label_offsets_off : label_offsets_off + 4 * (label_count + 1)
            ].cast("I")
            self._version_index = view[
                version_index_off : version_index_off + 4 * _VERSION_WORDS * version_count
            ].cast("I")
        except (ValueError, TypeError) as exc:
            self._release()
            raise PackedFormatError(f"malformed section table: {exc}") from exc
        self._label_names: list[str] | None = None
        self._label_ids: dict[str, int] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_buffer(cls, buffer) -> "PackedHistory":
        """Wrap (and validate) an in-memory buffer."""
        return cls(buffer)

    @classmethod
    def load(cls, path: str) -> "PackedHistory":
        """Open a packed artifact file, memory-mapped read-only.

        Each process mapping the same on-disk artifact shares its pages
        through the page cache.  The CRC-32 is computed by reading the
        file in blocks before it is mapped, so validation faults in no
        mapped page: a reader's resident set grows only with the
        versions it walks.
        """
        if os.path.getsize(path) == 0:
            raise PackedFormatError(f"packed artifact {path!r} is empty")
        with open(path, "rb") as handle:
            handle.seek(_CRC_START)
            crc, block = 0, memoryview(bytearray(1 << 20))
            while count := handle.readinto(block):
                crc = zlib.crc32(block[:count], crc)
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            return cls(mapped, path=path, _mmap=mapped, _crc=crc)
        except PackedFormatError:
            mapped.close()
            raise

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._version_count

    @property
    def path(self) -> str | None:
        """The backing file, when loaded from one."""
        return self._path

    @property
    def mmap_shared(self) -> bool:
        """True when the buffer is an OS-shared memory map."""
        return self._mmap is not None

    @property
    def nbytes(self) -> int:
        """Total buffer size in bytes."""
        return len(self._mv) if not self._closed else 0

    def version_bytes(self, index: int) -> int:
        """Bytes attributable to one version (nodes + rules sections)."""
        record = self._version_record(index)
        return 4 * (5 * record[0] + 2 * record[2] + record[4])

    @property
    def shared_bytes(self) -> int:
        """Bytes shared by all versions (header, string table, index)."""
        total = self.nbytes
        for index in range(self._version_count):
            total -= self.version_bytes(index)
        return total

    def fingerprint(self, index: int) -> str:
        """The canonical rule-set fingerprint of one version (hex)."""
        index = self._resolve(index)
        start = self._fingerprints_off + 32 * index
        return bytes(self._mv[start : start + 32]).hex()

    # -- label table ---------------------------------------------------------

    def _label_strings(self) -> list[str]:
        """All labels decoded once per process (lazy; ~tens of kB)."""
        names = self._label_names
        if names is None:
            offsets = self._label_offsets
            blob = self._mv[self._label_blob_off : self._label_blob_off + self._label_blob_len]
            names = [
                str(blob[offsets[i] : offsets[i + 1]], "ascii")
                for i in range(self._label_count)
            ]
            self._label_names = names
        return names

    def _label_id_map(self) -> dict[str, int]:
        """label -> id accelerator (lazy; the buffer stays canonical)."""
        ids = self._label_ids
        if ids is None:
            ids = {text: index for index, text in enumerate(self._label_strings())}
            self._label_ids = ids
        return ids

    # -- tries ---------------------------------------------------------------

    def _resolve(self, index: int) -> int:
        if index < 0:
            index += self._version_count
        if not 0 <= index < self._version_count:
            raise IndexError(f"version index {index} out of range")
        return index

    def _version_record(self, index: int) -> tuple[int, ...]:
        index = self._resolve(index)
        base = _VERSION_WORDS * index
        return tuple(self._version_index[base : base + _VERSION_WORDS])

    def trie(self, index: int) -> PackedTrie:
        """A :class:`PackedTrie` view over one version. Zero copies."""
        if self._closed:
            raise PackedFormatError("packed history is closed")
        (
            node_count,
            nodes_off,
            rule_count,
            rules_off,
            rule_label_count,
            rule_labels_off,
            _,
            _,
        ) = self._version_record(index)
        view = self._mv
        end = rule_labels_off + 4 * rule_label_count
        if end > len(view):
            raise PackedFormatError(
                f"version {index} sections exceed the buffer ({end} > {len(view)})"
            )
        stride = 4 * node_count
        try:
            arrays = (
                view[nodes_off : nodes_off + stride].cast("I"),
                view[nodes_off + stride : nodes_off + 2 * stride].cast("I"),
                view[nodes_off + 2 * stride : nodes_off + 3 * stride].cast("I"),
                view[nodes_off + 3 * stride : nodes_off + 4 * stride].cast("I"),
                view[nodes_off + 4 * stride : nodes_off + 5 * stride].cast("I"),
                view[rules_off : rules_off + 8 * rule_count].cast("I"),
                view[rule_labels_off:end].cast("I"),
            )
        except (ValueError, TypeError) as exc:
            raise PackedFormatError(f"malformed version record {index}: {exc}") from exc
        return PackedTrie(self, arrays, rule_count, self.fingerprint(index))

    # -- lifecycle -----------------------------------------------------------

    def _release(self) -> None:
        for name in ("_label_offsets", "_version_index"):
            view = getattr(self, name, None)
            if view is not None:
                view.release()
                setattr(self, name, None)
        if getattr(self, "_mv", None) is not None:
            self._mv.release()
            self._mv = None  # type: ignore[assignment]

    def close(self) -> None:
        """Release the container's views and unmap the buffer.

        Safe-unmap rule: every snapshot built over this history must be
        evicted and garbage-collected first; otherwise their tries
        still hold exported views and this raises
        :class:`PackedBufferInUseError` (the mapping stays valid, so
        in-flight readers are never torn down mid-answer).
        """
        if self._closed:
            return
        # Outstanding tries answer through the label table; decode it
        # now so a successful close never strands an in-flight reader.
        self._label_id_map()
        self._closed = True
        self._release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError as exc:
                # Reopen the container's own views so the history stays
                # fully usable; only the unmap is refused.
                self._closed = False
                self._reattach()
                raise PackedBufferInUseError(
                    "cannot unmap packed history: live snapshots still hold views "
                    "(evict them and garbage-collect before close())"
                ) from exc

    def _reattach(self) -> None:
        view = memoryview(self._buffer)
        self._mv = view
        header = _HEADER.unpack_from(view, 0)
        label_offsets_off, version_index_off = header[7], header[10]
        self._label_offsets = view[
            label_offsets_off : label_offsets_off + 4 * (self._label_count + 1)
        ].cast("I")
        self._version_index = view[
            version_index_off : version_index_off + 4 * _VERSION_WORDS * self._version_count
        ].cast("I")

    def __enter__(self) -> "PackedHistory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------

#: Estimated heap bytes per dict-trie node / rule, for environments
#: where the dict trie was never built (packed-only serving).  Derived
#: from CPython 3.11 measurements over the synthesized history:
#: a TrieNode (slots) + its children dict + dict entries + label keys
#: averages ~210 B/node, and a Rule + labels tuple + strings ~290 B.
EST_DICT_BYTES_PER_NODE = 210
EST_DICT_BYTES_PER_RULE = 290


def dict_trie_bytes(trie: SuffixTrie) -> int:
    """Measured heap bytes of a dict :class:`SuffixTrie` (deep walk).

    Counts nodes, children dicts, label keys, and rule objects (each
    rule once).  Interned labels shared with other tries are charged
    here too — the number answers "what does *this* trie keep alive",
    which is the eviction-relevant quantity.
    """
    getsizeof = sys.getsizeof
    total = getsizeof(trie)
    seen_rules: set[int] = set()
    stack = [trie._root]
    while stack:
        node = stack.pop()
        total += getsizeof(node) + getsizeof(node.children)
        for label, child in node.children.items():
            total += getsizeof(label)
            stack.append(child)
        for rule in (node.rule, node.exception_rule):
            if rule is not None and id(rule) not in seen_rules:
                seen_rules.add(id(rule))
                total += getsizeof(rule) + getsizeof(rule.labels)
                total += sum(getsizeof(text) for text in rule.labels)
    return total


def estimated_dict_trie_bytes(node_count: int, rule_count: int) -> int:
    """What a dict trie of this shape would cost, without building it."""
    return node_count * EST_DICT_BYTES_PER_NODE + rule_count * EST_DICT_BYTES_PER_RULE
