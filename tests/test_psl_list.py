"""Tests for the PublicSuffixList facade — the publicsuffix.org algorithm.

The checklist cases mirror the official test data's categories
(https://publicsuffix.org/list/), exercised against the fixture list.
"""

import os
import subprocess
import sys

import pytest

from repro.psl.list import PublicSuffixList
from repro.psl.rules import Rule, Section


class TestAlgorithm:
    def test_normal_rule(self, small_psl):
        assert small_psl.public_suffix("a.b.com") == "com"
        assert small_psl.registrable_domain("a.b.com") == "b.com"

    def test_two_label_rule(self, small_psl):
        assert small_psl.public_suffix("amazon.co.uk") == "co.uk"
        assert small_psl.registrable_domain("www.amazon.co.uk") == "amazon.co.uk"

    def test_longest_rule_prevails(self, small_psl):
        # Both 'uk' and 'co.uk' match; co.uk is longer.
        assert small_psl.public_suffix("x.co.uk") == "co.uk"
        # But a plain uk name uses the shorter rule.
        assert small_psl.registrable_domain("parliament.uk") == "parliament.uk"

    def test_wildcard_rule(self, small_psl):
        assert small_psl.public_suffix("a.b.ck") == "b.ck"
        assert small_psl.registrable_domain("a.b.ck") == "a.b.ck"

    def test_exception_rule(self, small_psl):
        assert small_psl.public_suffix("www.ck") == "ck"
        assert small_psl.registrable_domain("www.ck") == "www.ck"
        assert small_psl.registrable_domain("x.www.ck") == "www.ck"

    def test_default_rule_for_unknown_tld(self, small_psl):
        assert small_psl.public_suffix("example.zz") == "zz"
        assert small_psl.registrable_domain("www.example.zz") == "example.zz"

    def test_hostname_is_suffix(self, small_psl):
        assert small_psl.registrable_domain("co.uk") is None
        assert small_psl.registrable_domain("github.io") is None

    def test_bare_tld(self, small_psl):
        assert small_psl.public_suffix("com") == "com"
        assert small_psl.registrable_domain("com") is None

    def test_private_section_rule(self, small_psl):
        assert small_psl.public_suffix("alice.github.io") == "github.io"

    def test_five_component_rule(self, small_psl):
        host = "bucket.s3.dualstack.us-east-1.amazonaws.com"
        assert small_psl.public_suffix(host) == "s3.dualstack.us-east-1.amazonaws.com"
        assert small_psl.registrable_domain(host) == host

    def test_case_and_trailing_dot_normalized(self, small_psl):
        assert small_psl.registrable_domain("WWW.Amazon.CO.UK.") == "amazon.co.uk"

    def test_unicode_hostname(self):
        psl = PublicSuffixList([Rule.parse("みんな")])
        match = psl.match("example.みんな")
        assert match.public_suffix == "xn--q9jyb4c"


class TestSuffixMatch:
    def test_default_rule_flag(self, small_psl):
        assert small_psl.match("foo.zz").is_default_rule
        assert not small_psl.match("foo.com").is_default_rule

    def test_section_exposed(self, small_psl):
        assert small_psl.match("a.github.io").section is Section.PRIVATE
        assert small_psl.match("a.com").section is Section.ICANN
        assert small_psl.match("a.zz").section is None

    def test_site_falls_back_to_suffix(self, small_psl):
        assert small_psl.match("github.io").site == "github.io"
        assert small_psl.match("a.github.io").site == "a.github.io"


class TestSiteChecks:
    def test_same_site_within_org(self, small_psl):
        assert small_psl.same_site("maps.google.com", "www.google.com")

    def test_different_sites_across_tenants(self, small_psl):
        assert not small_psl.same_site("alice.github.io", "bob.github.io")

    def test_is_public_suffix(self, small_psl):
        assert small_psl.is_public_suffix("co.uk")
        assert small_psl.is_public_suffix("github.io")
        assert not small_psl.is_public_suffix("example.co.uk")
        # Unknown TLDs are suffixes under the default rule.
        assert small_psl.is_public_suffix("zz")


class TestContainer:
    def test_len(self, small_psl):
        assert len(small_psl) == 11

    def test_iteration_sorted_and_stable(self, small_psl):
        assert list(small_psl) == sorted(
            small_psl.rules, key=lambda r: (r.labels, r.kind.value)
        )

    def test_contains_rule_object(self, small_psl):
        assert Rule.parse("co.uk") in small_psl
        assert Rule.parse("co.uk", section=Section.PRIVATE) not in small_psl

    def test_contains_text(self, small_psl):
        assert "co.uk" in small_psl
        assert "!www.ck" in small_psl
        assert "nope.example" not in small_psl

    def test_equality_ignores_construction_order(self):
        rules = [Rule.parse("com"), Rule.parse("net")]
        assert PublicSuffixList(rules) == PublicSuffixList(reversed(rules))

    def test_fingerprint_stable(self):
        first = PublicSuffixList([Rule.parse("com")])
        second = PublicSuffixList([Rule.parse("com")])
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_changes_with_rules(self):
        first = PublicSuffixList([Rule.parse("com")])
        second = PublicSuffixList([Rule.parse("net")])
        assert first.fingerprint != second.fingerprint

    def test_fingerprint_sensitive_to_section(self):
        icann = PublicSuffixList([Rule.parse("foo.com")])
        private = PublicSuffixList([Rule.parse("foo.com", section=Section.PRIVATE)])
        assert icann.fingerprint != private.fingerprint

    def test_hashable(self, small_psl):
        assert small_psl in {small_psl}

    def test_fingerprint_of_a_name_in_both_sections_ignores_hash_seed(self):
        """A name listed in both sections once hashed in set order, so
        its fingerprint hung on PYTHONHASHSEED; seeds 1 and 3 gave two
        values.  Both must now give the packed writer's one value."""
        script = (
            "from repro.psl.list import PublicSuffixList\n"
            "from repro.psl.packed import PackedHistory, pack_rules\n"
            "from repro.psl.rules import Rule, Section\n"
            "rules = [Rule.parse('com'), Rule.parse('example.com'),\n"
            "         Rule.parse('example.com', section=Section.PRIVATE)]\n"
            "print(PublicSuffixList(rules).fingerprint,\n"
            "      PackedHistory.from_buffer(pack_rules(rules)).fingerprint(0))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        printed = set()
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
            listed, packed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True,
            ).stdout.split()
            assert listed == packed, seed
            printed.add(listed)
        assert len(printed) == 1


class TestIntrospection:
    def test_rules_in_section(self, small_psl):
        assert len(small_psl.rules_in_section(Section.PRIVATE)) == 3

    def test_component_histogram(self, small_psl):
        histogram = small_psl.component_histogram()
        assert histogram[1] == 4  # com, net, uk, jp
        assert histogram[2] == 6  # co.uk, *.ck, !www.ck, kyoto.jp, github.io, blogspot.com
        assert histogram[5] == 1


class TestExtract:
    def test_three_parts(self, small_psl):
        result = small_psl.extract("www.forums.amazon.co.uk")
        assert result.subdomain == "www.forums"
        assert result.domain == "amazon"
        assert result.suffix == "co.uk"
        assert result.registrable_domain == "amazon.co.uk"

    def test_no_subdomain(self, small_psl):
        result = small_psl.extract("amazon.co.uk")
        assert result.subdomain == ""
        assert result.domain == "amazon"

    def test_bare_suffix(self, small_psl):
        result = small_psl.extract("co.uk")
        assert result.domain == ""
        assert result.registrable_domain is None
        assert result.suffix == "co.uk"

    def test_fqdn_roundtrip(self, small_psl):
        for host in ("www.a.b.com", "a.co.uk", "github.io", "x.y.z.kyoto.jp"):
            assert small_psl.extract(host).fqdn == host

    def test_unknown_tld(self, small_psl):
        result = small_psl.extract("deep.sub.example.zz")
        assert result.suffix == "zz"
        assert result.domain == "example"
        assert result.subdomain == "deep.sub"

    def test_normalization(self, small_psl):
        assert small_psl.extract("WWW.Amazon.CO.UK.").domain == "amazon"


class TestWithRules:
    def test_add(self, small_psl):
        grown = small_psl.with_rules(added=[Rule.parse("dev")])
        assert len(grown) == len(small_psl) + 1
        assert grown.public_suffix("x.dev") == "dev"

    def test_remove(self, small_psl):
        shrunk = small_psl.with_rules(removed=[Rule.parse("co.uk")])
        assert shrunk.public_suffix("a.co.uk") == "uk"

    def test_original_unchanged(self, small_psl):
        small_psl.with_rules(added=[Rule.parse("dev")])
        assert "dev" not in small_psl
