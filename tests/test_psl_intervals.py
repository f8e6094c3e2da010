"""The interval-stamped rule trie against one SuffixTrie per slot.

:class:`~repro.psl.intervals.IntervalTrie` answers a hostname under
every slot of a history at once.  These tests hold each slot of that
answer to :meth:`SuffixTrie.prevailing` over the slot's rule set built
from scratch:

* differential property tests draw every version as a subset of one
  small rule pool, so rules leave and return, and a name can sit in
  the ICANN section in one version and the PRIVATE section in another
  (or in both at once); the pool mixes normal, wildcard and exception
  rules over a three-letter alphabet, so hostnames hit them often;
* hand-built histories pin the cases by name;
* a pickled index answers every host as the original does, whether or
  not the original had resolved segments before it was pickled.
"""

import datetime
import pickle

from hypothesis import given, settings, strategies as st

from repro.history.store import VersionStore
from repro.psl.diff import RuleDelta
from repro.psl.intervals import IntervalTrie
from repro.psl.rules import Rule, RuleKind, Section
from repro.psl.trie import SuffixTrie

label = st.sampled_from(["a", "b", "c"])


@st.composite
def pool_rule(draw):
    labels = draw(st.lists(label, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["normal", "wildcard", "exception"]))
    section = draw(st.sampled_from([Section.ICANN, Section.PRIVATE]))
    name = ".".join(labels)
    if kind == "wildcard":
        name = f"*.{name}"
    elif kind == "exception" and len(labels) >= 2:
        name = f"!{name}"
    return Rule.parse(name, section=section)


@st.composite
def histories(draw):
    """A store whose versions are subsets of one rule pool."""
    pool = sorted(
        set(draw(st.lists(pool_rule(), min_size=1, max_size=10))),
        key=lambda rule: (rule.text, rule.section.value),
    )
    steps = draw(
        st.lists(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)),
                 min_size=1, max_size=8)
    )
    store = VersionStore(snapshot_interval=4)
    day = datetime.date(2020, 1, 1)
    current: frozenset[Rule] = frozenset()
    for mask in steps:
        target = frozenset(rule for rule, keep in zip(pool, mask) if keep)
        if target != current:
            store.commit(day, RuleDelta(added=target - current, removed=current - target))
            current = target
            day += datetime.timedelta(days=1)
    if len(store) == 0:
        store.commit_rules(day, added=pool[:1])
    return store


hostnames = st.lists(st.lists(label, min_size=1, max_size=5).map(tuple),
                     min_size=1, max_size=20)


def index_of(store):
    return IntervalTrie(
        store.rules_at(0), [store.delta_between(i - 1, i) for i in range(1, len(store))]
    )


def suffix_length(rule):
    """The length site_for_reversed takes from a prevailing rule."""
    if rule is None:
        return 1
    if rule.kind is RuleKind.EXCEPTION:
        return rule.component_count - 1
    return rule.component_count


def at(segments, slot):
    return [length for start, length in segments if start <= slot][-1]


def assert_matches_every_slot(store, hosts):
    index = index_of(store)
    assert index.slots == len(store)
    tries = [SuffixTrie(store.rules_at(slot)) for slot in range(len(store))]
    for host in hosts:
        segments = index.segments(host)
        assert segments[0][0] == 0
        assert all(a[0] < b[0] and a[1] != b[1] for a, b in zip(segments, segments[1:]))
        assert segments[-1][0] < len(store)
        for slot, trie in enumerate(tries):
            assert at(segments, slot) == suffix_length(trie.prevailing(host)), (host, slot)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(histories(), hostnames)
    def test_segments_equal_prevailing_at_every_slot(self, store, hosts):
        assert_matches_every_slot(store, hosts)


class TestPickle:
    @settings(max_examples=150, deadline=None)
    @given(histories(), hostnames, hostnames)
    def test_round_trip_keeps_every_segment(self, store, walked, hosts):
        fresh = index_of(store)
        filled = index_of(store)
        for host in walked:
            filled.segments(host)
        # The resolved segments stay out of the bytes.
        assert pickle.dumps(filled) == pickle.dumps(fresh)
        for index in (fresh, filled):
            loaded = pickle.loads(pickle.dumps(index))
            assert loaded.slots == index.slots
            for host in walked + hosts:
                assert loaded.segments(host) == index.segments(host), host


def store_of(*versions):
    """A store whose version ``i`` holds exactly ``versions[i]``."""
    store = VersionStore()
    current: frozenset[Rule] = frozenset()
    day = datetime.date(2020, 1, 1)
    for rules in versions:
        target = frozenset(rules)
        store.commit(day, RuleDelta(added=target - current, removed=current - target))
        current = target
        day += datetime.timedelta(days=1)
    return store


def rev(host):
    return tuple(reversed(host.split(".")))


COM = Rule.parse("com")
CK_WILD = Rule.parse("*.ck")
WWW_CK = Rule.parse("!www.ck")
APP = Rule.parse("app.com", section=Section.PRIVATE)
APP_ICANN = Rule.parse("app.com")


class TestHandBuilt:
    def test_rule_that_leaves_and_returns(self):
        store = store_of({COM, APP}, {COM}, {COM, CK_WILD}, {COM, APP, CK_WILD})
        index = index_of(store)
        assert index.segments(rev("x.app.com")) == ((0, 2), (1, 1), (3, 2))
        assert_matches_every_slot(store, [rev("x.app.com"), rev("app.com")])

    def test_section_move_keeps_the_suffix(self):
        store = store_of({COM, APP}, {COM, APP_ICANN}, {COM, APP})
        assert index_of(store).segments(rev("x.app.com")) == ((0, 2),)

    def test_both_sections_at_once(self):
        store = store_of({COM, APP, APP_ICANN}, {COM, APP_ICANN}, {COM})
        assert index_of(store).segments(rev("x.app.com")) == ((0, 2), (2, 1))

    def test_exception_under_wildcard(self):
        store = store_of({CK_WILD}, {CK_WILD, WWW_CK}, {WWW_CK})
        index = index_of(store)
        assert index.segments(rev("a.www.ck")) == ((0, 2), (1, 1))
        assert index.segments(rev("a.other.ck")) == ((0, 2), (2, 1))
        assert_matches_every_slot(store, [rev(h) for h in ("a.www.ck", "www.ck", "ck", "x.ck")])

    def test_unmatched_host_is_the_default_rule(self):
        store = store_of({COM}, {COM, CK_WILD})
        assert index_of(store).segments(rev("example.org")) == ((0, 1),)

    def test_single_slot(self):
        index = IntervalTrie([COM, APP])
        assert index.slots == 1
        assert index.segments(rev("a.app.com")) == ((0, 2),)

    def test_nested_exceptions_shallowest_wins(self):
        """SuffixTrie.prevailing returns the first exception on the
        walk; the segments follow it slot by slot."""
        shallow, deep = Rule.parse("!a.b"), Rule.parse("!c.a.b")
        store = store_of({deep}, {deep, shallow}, {shallow}, {deep})
        hosts = [rev("x.c.a.b"), rev("c.a.b"), rev("a.b")]
        assert index_of(store).segments(hosts[0]) == ((0, 2), (1, 1), (3, 2))
        assert_matches_every_slot(store, hosts)
