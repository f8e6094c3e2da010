"""Tests for one-shot site grouping."""

from repro.psl.rules import Rule
from repro.psl.trie import SuffixTrie
from repro.webgraph.sites import group_sites, site_for, site_metrics

HOSTS = [
    "a.github.io",
    "b.github.io",
    "github.io",
    "www.example.com",
    "cdn.example.com",
    "example.com",
    "x.co.uk",
    "www.x.co.uk",
    "unknown.zz",
]


def _rules(*texts):
    return [Rule.parse(text) for text in texts]


class TestSiteFor:
    def test_registrable(self):
        trie = SuffixTrie(_rules("com"))
        assert site_for(trie, ("www", "example", "com")) == "example.com"

    def test_suffix_itself(self):
        trie = SuffixTrie(_rules("github.io"))
        assert site_for(trie, ("github", "io")) == "github.io"

    def test_default_rule(self):
        trie = SuffixTrie([])
        assert site_for(trie, ("a", "b", "zz")) == "b.zz"

    def test_exception(self):
        trie = SuffixTrie(_rules("*.ck", "!www.ck"))
        assert site_for(trie, ("x", "www", "ck")) == "www.ck"


class TestGroupSites:
    def test_matches_psl_facade(self, small_psl):
        assignment = group_sites(small_psl, HOSTS)
        for host in HOSTS:
            assert assignment[host] == small_psl.site_of(host)

    def test_metrics(self, small_psl):
        metrics = site_metrics(group_sites(small_psl, HOSTS))
        assert metrics.hostname_count == len(HOSTS)
        # a.github.io, b.github.io, github.io, example.com, x.co.uk, unknown.zz
        assert metrics.site_count == 6
        assert metrics.mean_site_size == len(HOSTS) / 6

    def test_empty_metrics(self):
        metrics = site_metrics({})
        assert metrics.site_count == 0 and metrics.mean_site_size == 0.0
