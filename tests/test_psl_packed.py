"""Tests for repro.psl.packed: the flat zero-copy trie encoding.

Four correctness arguments, in rising order of paranoia:

* **curated parity** — hand-built rule sets covering every algorithm
  edge (wildcard, exception, unlisted parent) answer identically
  through :class:`PackedTrie` and the dict :class:`SuffixTrie`;
* **differential over a churn history** — every version of a
  synthesized add/remove history answers bit-identically (prevailing,
  matches, has_rule_below, fingerprint) under both representations;
* **hypothesis** — arbitrary rule sets and hostnames, packed and
  replayed against the dict oracle;
* **corruption safety** — truncations, bit flips, and bad headers must
  raise :class:`PackedFormatError` at load time, never answer wrong;
* **cross-process mmap** — two subprocesses map one packed artifact
  file and serve identical answers off shared pages.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import random
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.history.store import VersionStore
from repro.psl.list import PublicSuffixList
from repro.psl.packed import (
    MAGIC,
    PackedBufferInUseError,
    PackedFormatError,
    PackedHistory,
    dict_trie_bytes,
    estimated_dict_trie_bytes,
    pack_history,
    pack_rules,
)
from repro.psl.rules import Rule
from repro.psl.trie import SuffixTrie

CURATED = [
    "com", "net", "org", "uk", "io", "jp",
    "co.uk", "github.io", "*.kawasaki.jp", "!city.kawasaki.jp",
    "cdn.example.net", "s3.dualstack.example.org",
]

PROBES = [
    "www.example.co.uk", "example.co.uk", "co.uk", "uk",
    "a.b.city.kawasaki.jp", "city.kawasaki.jp", "x.other.kawasaki.jp",
    "other.kawasaki.jp", "kawasaki.jp",
    "alice.github.io", "github.io",
    "example.net", "cdn.example.net", "deep.cdn.example.net",
    "example.org", "dualstack.example.org", "s3.dualstack.example.org",
    "unknown.zz", "zz", "single",
]


def reversed_labels(hostname: str) -> tuple[str, ...]:
    return tuple(reversed(hostname.split(".")))


def curated_rules() -> list[Rule]:
    return [Rule.parse(text) for text in CURATED]


def make_churn_store(*, versions: int = 60, seed: int = 7) -> VersionStore:
    """A history with real add/remove churn across every rule kind."""
    rng = random.Random(seed)
    pool_labels = ["com", "net", "org", "uk", "jp", "io", "zz", "app", "dev"]
    second = ["co", "ac", "gov", "pages", "cdn", "s3", "kawasaki", "web"]
    third = ["dual", "east", "west", "edge", "static"]

    def random_rule() -> Rule:
        depth = rng.choice((1, 2, 2, 2, 3, 3))
        labels = [rng.choice(pool_labels)]
        if depth >= 2:
            labels.insert(0, rng.choice(second))
        if depth >= 3:
            labels.insert(0, rng.choice(third))
        name = ".".join(labels)
        kind = rng.random()
        if kind < 0.15:
            return Rule.parse(f"*.{name}")
        if kind < 0.25 and depth >= 2:
            return Rule.parse(f"!{name}")
        return Rule.parse(name)

    store = VersionStore()
    live: set[Rule] = set()
    date = datetime.date(2016, 1, 1)
    for index in range(versions):
        added: set[Rule] = set()
        removed: set[Rule] = set()
        if index == 0:
            while len(added) < 8:
                added.add(random_rule())
        else:
            for _ in range(rng.randint(1, 4)):
                candidate = random_rule()
                if candidate not in live:
                    added.add(candidate)
            if live and rng.random() < 0.7:
                for victim in rng.sample(sorted(live, key=lambda r: r.text),
                                         k=min(rng.randint(1, 2), len(live))):
                    removed.add(victim)
        if not added and not removed:
            added.add(random_rule())
        store.commit_rules(date, added=sorted(added, key=lambda r: r.text),
                           removed=sorted(removed, key=lambda r: r.text))
        live |= added
        live -= removed
        date += datetime.timedelta(days=11)
    return store


def probe_hosts_for(rules: list[Rule], rng: random.Random) -> list[str]:
    """Hostnames that exercise these rules: exact, below, and beside."""
    hosts = ["unknown.zz", "zz", "plainhost"]
    for rule in rng.sample(rules, k=min(12, len(rules))):
        name = ".".join(reversed(rule.labels)).replace("*", "star")
        hosts.append(name)
        hosts.append(f"sub.{name}")
        hosts.append(f"deep.sub.{name}")
    return hosts


class TestCuratedParity:
    def test_prevailing_matches_and_below(self):
        rules = curated_rules()
        packed = PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        oracle = SuffixTrie(rules)
        for host in PROBES:
            labels = reversed_labels(host)
            assert packed.prevailing(labels) == oracle.prevailing(labels), host
            assert packed.matches(labels) == oracle.matches(labels), host
            assert packed.has_rule_below(labels) == oracle.has_rule_below(labels), host

    def test_full_psl_surface_parity(self):
        rules = curated_rules()
        dict_psl = PublicSuffixList(rules)
        packed_psl = PublicSuffixList.from_packed(
            PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        )
        for host in PROBES:
            assert dict_psl.match(host) == packed_psl.match(host), host
            assert dict_psl.any_suffix_below(host) == packed_psl.any_suffix_below(host)
            assert dict_psl.extract(host) == packed_psl.extract(host)

    def test_fingerprint_equals_dict_construction(self):
        rules = curated_rules()
        packed = PackedHistory.from_buffer(pack_rules(rules))
        assert packed.fingerprint(0) == PublicSuffixList(rules).fingerprint

    def test_rules_materialize_lazily_and_sorted(self):
        rules = curated_rules()
        packed_psl = PublicSuffixList.from_packed(
            PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        )
        assert packed_psl.rules == PublicSuffixList(rules).rules
        assert len(packed_psl) == len(rules)
        assert "co.uk" in packed_psl
        assert "nope.example" not in packed_psl

    def test_empty_rule_set_packs(self):
        packed = PackedHistory.from_buffer(pack_rules([])).trie(0)
        assert packed.prevailing(("com",)) is None
        assert packed.matches(("a", "b")) == []
        assert not packed.has_rule_below(("com",))
        assert len(packed) == 0

    def test_unlisted_parent_cookie_jar_case(self):
        # `cdn.example.net` is a rule while `example.net` is not: the
        # unlisted-parent anomaly must survive the packed encoding.
        packed_psl = PublicSuffixList.from_packed(
            PackedHistory.from_buffer(pack_rules(curated_rules())).trie(0)
        )
        assert packed_psl.any_suffix_below("example.net") is True
        assert packed_psl.any_suffix_below("cdn.example.net") is False
        assert packed_psl.any_suffix_below("example.org") is True


class TestHistoryDifferential:
    def test_every_version_bit_identical(self):
        store = make_churn_store()
        packed = PackedHistory.from_buffer(pack_history(store))
        assert len(packed) == len(store)
        rng = random.Random(1)
        for index in range(len(store)):
            rules = sorted(store.rules_at(index), key=lambda r: r.text)
            oracle = PublicSuffixList(rules)
            trie = packed.trie(index)
            assert trie.fingerprint == oracle.fingerprint, index
            assert len(trie) == len(oracle)
            packed_psl = PublicSuffixList.from_packed(trie)
            for host in probe_hosts_for(rules, rng):
                assert packed_psl.match(host) == oracle.match(host), (index, host)
                assert packed_psl.any_suffix_below(host) == oracle.any_suffix_below(
                    host
                ), (index, host)
            assert set(trie.iter_rules()) == set(rules), index

    def test_subset_indexes_pack(self):
        store = make_churn_store(versions=20)
        packed = PackedHistory.from_buffer(pack_history(store, indexes=[0, 7, -1]))
        assert len(packed) == 3
        for position, index in enumerate((0, 7, len(store) - 1)):
            oracle = PublicSuffixList(store.rules_at(index))
            assert packed.fingerprint(position) == oracle.fingerprint

    def test_history_blob_bytes_are_pinned(self):
        """The packed bytes of a seeded history, full and subset, pinned:
        any change to how versions, tries or fingerprints are packed
        must reproduce the same blob."""
        full = pack_history(make_churn_store())
        subset = pack_history(make_churn_store(versions=20), indexes=[0, 7, -1])
        assert hashlib.sha256(full).hexdigest() == (
            "ca30625e4960fbfbf319a5a6d485bd45038c3589788f78f1cdd1f23a379445a4"
        )
        assert hashlib.sha256(subset).hexdigest() == (
            "37a7cb10d5252995a569829689749456bf5e543a22a655592e01eec448d24a65"
        )

    def test_accounting_sections_sum_to_buffer(self):
        store = make_churn_store(versions=20)
        packed = PackedHistory.from_buffer(pack_history(store))
        per_version = sum(packed.version_bytes(i) for i in range(len(packed)))
        assert packed.shared_bytes + per_version == packed.nbytes
        assert packed.shared_bytes > 0
        assert estimated_dict_trie_bytes(10, 5) > 0
        assert dict_trie_bytes(SuffixTrie(curated_rules())) > 0


# -- hypothesis ---------------------------------------------------------------

label = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))


@st.composite
def rule_text(draw):
    labels = draw(st.lists(label, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["normal", "normal", "normal", "wildcard", "exception"]))
    name = ".".join(labels)
    if kind == "wildcard":
        return f"*.{name}"
    if kind == "exception" and len(labels) >= 2:
        return f"!{name}"
    return name


rule_sets = st.lists(rule_text(), min_size=0, max_size=16).map(
    lambda texts: [Rule.parse(t) for t in texts]
)
hostname_labels = st.lists(label, min_size=1, max_size=5).map(tuple)


class TestPackedProperties:
    @settings(max_examples=60, deadline=None)
    @given(rule_sets, hostname_labels)
    def test_packed_agrees_with_dict_trie(self, rules, labels):
        packed = PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        oracle = SuffixTrie(rules)
        reversed_host = tuple(reversed(labels))
        assert packed.prevailing(reversed_host) == oracle.prevailing(reversed_host)
        assert packed.matches(reversed_host) == oracle.matches(reversed_host)
        assert packed.has_rule_below(reversed_host) == oracle.has_rule_below(
            reversed_host
        )

    @settings(max_examples=40, deadline=None)
    @given(rule_sets)
    def test_pack_preserves_rule_set_and_fingerprint(self, rules):
        packed = PackedHistory.from_buffer(pack_rules(rules))
        assert set(packed.trie(0).iter_rules()) == set(rules)
        assert packed.fingerprint(0) == PublicSuffixList(rules).fingerprint


# -- corruption safety --------------------------------------------------------


class TestCorruptionSafety:
    @pytest.fixture(scope="class")
    def blob(self) -> bytes:
        return pack_history(make_churn_store(versions=12))

    def test_truncation_always_fails_loading(self, blob):
        for cut in (0, 1, 15, 63, 64, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PackedFormatError):
                PackedHistory.from_buffer(blob[:cut])

    def test_trailing_garbage_fails_loading(self, blob):
        with pytest.raises(PackedFormatError, match="length mismatch"):
            PackedHistory.from_buffer(blob + b"\0\0\0\0")

    def test_bit_flips_always_fail_loading(self, blob):
        rng = random.Random(3)
        positions = [16, 20, len(blob) // 3, len(blob) // 2, len(blob) - 2]
        positions += [rng.randrange(16, len(blob)) for _ in range(10)]
        for position in positions:
            flipped = bytearray(blob)
            flipped[position] ^= 1 << rng.randrange(8)
            with pytest.raises(PackedFormatError, match="checksum|length|magic"):
                PackedHistory.from_buffer(bytes(flipped))

    def test_bad_magic_is_a_clear_error(self, blob):
        mangled = b"NOTPSL!\0" + blob[8:]
        with pytest.raises(PackedFormatError, match="magic"):
            PackedHistory.from_buffer(mangled)
        assert blob[:8] == MAGIC

    def test_unsupported_format_version(self, blob):
        import struct
        import zlib

        mangled = bytearray(blob)
        struct.pack_into("<I", mangled, 8, 99)
        # Re-stamp the crc so the *version* check is what fires.
        struct.pack_into("<I", mangled, 12, zlib.crc32(memoryview(mangled)[16:]))
        with pytest.raises(PackedFormatError, match="version"):
            PackedHistory.from_buffer(bytes(mangled))

    def test_corrupt_file_on_disk(self, blob, tmp_path):
        path = tmp_path / "corrupt.bin"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PackedFormatError):
            PackedHistory.load(str(path))
        # The last version's section ends the file: one flipped bit
        # there must fail the streamed CRC before anything is mapped.
        flipped = bytearray(blob)
        flipped[len(blob) - PackedHistory.from_buffer(blob).version_bytes(-1) // 2] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(PackedFormatError, match="checksum"):
            PackedHistory.load(str(path))
        path.write_bytes(b"")
        with pytest.raises(PackedFormatError, match="empty"):
            PackedHistory.load(str(path))


# -- mmap lifecycle -----------------------------------------------------------


def mapped_rss_bytes(path: str) -> int:
    """Resident bytes of this process's mappings of ``path`` (Linux)."""
    target = os.path.realpath(path)
    rss = 0
    inside = False
    with open("/proc/self/smaps", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if fields and "-" in fields[0] and not fields[0].endswith(":"):
                inside = fields[-1] == target
            elif inside and fields[0] == "Rss:":
                rss += int(fields[1]) * 1024
    return rss


class TestMmapLifecycle:
    def test_close_refused_while_views_live(self, tmp_path):
        path = tmp_path / "history.bin"
        path.write_bytes(pack_history(make_churn_store(versions=6)))
        history = PackedHistory.load(str(path))
        assert history.mmap_shared
        trie = history.trie(2)
        with pytest.raises(PackedBufferInUseError):
            history.close()
        # The refused close left the history fully usable.
        assert history.trie(0).prevailing(("com",)) is not None or True
        before = trie.prevailing(("uk", "co"))
        del trie
        import gc

        gc.collect()
        history.close()
        history.close()  # idempotent
        with pytest.raises(PackedFormatError, match="closed"):
            history.trie(0)
        del before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
    def test_load_faults_in_only_what_a_reader_walks(self, tmp_path):
        # ~16 MB over 110 versions; the CRC check must read the file,
        # not fault the mapping in, so one lookup under version 0
        # leaves most of the mapping non-resident.
        store = VersionStore()
        date = datetime.date(2016, 1, 1)
        store.commit_rules(date, added=[Rule.parse(f"n{i}.zone{i % 97}") for i in range(4000)])
        for index in range(1, 110):
            date += datetime.timedelta(days=1)
            store.commit_rules(date, added=[Rule.parse(f"v{index}.zone{index % 97}")])
        path = tmp_path / "wide.bin"
        path.write_bytes(pack_history(store))
        size = path.stat().st_size
        history = PackedHistory.load(str(path))
        assert history.mmap_shared and len(history) == 110
        assert history.trie(0).prevailing(("zone5", "n5", "www")).name == "n5.zone5"
        assert 0 < mapped_rss_bytes(str(path)) < size // 4

    def test_context_manager(self, tmp_path):
        path = tmp_path / "history.bin"
        path.write_bytes(pack_rules(curated_rules()))
        with PackedHistory.from_buffer(path.read_bytes()) as history:
            assert not history.mmap_shared
            assert history.trie(0).prevailing(("uk", "co")) is not None


# -- cross-process sharing ----------------------------------------------------

_CHILD = r"""
import json, sys, time
from repro.psl.list import PublicSuffixList
from repro.psl.packed import PackedHistory

path, probes_json = sys.argv[1], sys.argv[2]
probes = json.loads(probes_json)
started = time.perf_counter()
history = PackedHistory.load(path)           # mmap: pages shared via the OS
load_seconds = time.perf_counter() - started
answers = {}
for index in range(len(history)):
    psl = PublicSuffixList.from_packed(history.trie(index))
    answers[str(index)] = {host: psl.match(host).site for host in probes}
print(json.dumps({
    "mmap_shared": history.mmap_shared,
    "load_seconds": load_seconds,
    "nbytes": history.nbytes,
    "answers": answers,
}))
"""


class TestCrossProcess:
    def test_two_processes_share_one_artifact(self, tmp_path):
        store = make_churn_store(versions=10)
        blob = pack_history(store)
        path = tmp_path / "packed.bin"
        path.write_bytes(blob)
        probes = PROBES[:8]

        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", _CHILD, str(path), json.dumps(probes)],
                capture_output=True,
                text=True,
                timeout=120,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                cwd="/root/repo",
            )
            assert result.returncode == 0, result.stderr
            outputs.append(json.loads(result.stdout))

        first, second = outputs
        # Identical answers across processes, off one on-disk copy.
        assert first["answers"] == second["answers"]
        assert first["mmap_shared"] and second["mmap_shared"]
        assert first["nbytes"] == len(blob)
        # Near-zero-copy: mapping the whole history is milliseconds,
        # not a per-version trie build.
        assert first["load_seconds"] < 1.0 and second["load_seconds"] < 1.0
        # And the answers are *right*: spot-check against dict oracles.
        for index in (0, len(store) - 1):
            oracle = PublicSuffixList(store.rules_at(index))
            for host in probes:
                assert first["answers"][str(index)][host] == oracle.match(host).site
