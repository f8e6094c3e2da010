"""Tests for repro.net.hostname."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.errors import HostnameError
from repro.net.hostname import (
    _normalize_full,
    Hostname,
    is_ip_literal,
    join_labels,
    normalize_hostname,
    normalize_or_none,
    normalize_or_reject,
    split_labels,
    validate_label,
)


class TestNormalizeOrReject:
    """The shared ingest gate used by repro.serve and webgraph.stream."""

    def test_case_and_trailing_dot(self):
        assert normalize_or_reject("WWW.Example.COM.") == "www.example.com"

    def test_unicode_name_passes_and_stays_ulabel(self):
        assert normalize_or_reject("点看.Example") == "点看.example"

    def test_non_idna_encodable_rejected(self):
        # A label that punycode-encodes past the 63-octet A-label limit.
        monster = "点" * 60 + ".example"
        with pytest.raises(HostnameError) as excinfo:
            normalize_or_reject(monster)
        assert "IDNA" in excinfo.value.reason

    def test_non_string_rejected(self):
        with pytest.raises(HostnameError):
            normalize_or_reject(12345)
        with pytest.raises(HostnameError):
            normalize_or_reject(None)

    def test_structural_garbage_rejected(self):
        for bad in ("", "a..b.com", "white space.com", "192.168.0.1"):
            with pytest.raises(HostnameError):
                normalize_or_reject(bad)

    def test_none_variant_mirrors_reject(self):
        assert normalize_or_none("A.B.Com") == "a.b.com"
        assert normalize_or_none("bad..name") is None
        assert normalize_or_none(42) is None


class TestNormalize:
    def test_lowercases(self):
        assert normalize_hostname("WWW.Example.COM") == "www.example.com"

    def test_strips_whitespace(self):
        assert normalize_hostname("  example.com  ") == "example.com"

    def test_strips_single_trailing_dot(self):
        assert normalize_hostname("example.com.") == "example.com"

    def test_double_trailing_dot_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname("example.com..")

    def test_empty_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname("")

    def test_only_dot_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname(".")

    def test_empty_interior_label_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname("a..b.com")

    def test_leading_dot_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname(".example.com")

    def test_overlong_hostname_rejected(self):
        name = ".".join(["a" * 60] * 5)
        with pytest.raises(HostnameError):
            normalize_hostname(name)

    def test_253_char_hostname_accepted(self):
        label = "a" * 49
        name = ".".join([label] * 5) + ".com"  # 49*5 + 4 + 4 = 253
        assert len(name) == 253
        assert normalize_hostname(name) == name

    def test_ipv4_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname("192.168.0.1")

    def test_ipv6_literal_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname("[::1]")

    def test_unicode_passes_through(self):
        assert normalize_hostname("Bücher.example") == "bücher.example"

    def test_underscore_tolerated(self):
        # Crawl data contains these (e.g. _dmarc records, sloppy CDNs).
        assert normalize_hostname("_dmarc.example.com") == "_dmarc.example.com"

    def test_space_inside_rejected(self):
        with pytest.raises(HostnameError):
            normalize_hostname("exam ple.com")


class TestULabelGate:
    """ASCII characters inside a U-label obey the same LDH rule as ASCII labels."""

    @pytest.mark.parametrize(
        "value",
        [
            "ü<script>.com",
            'a"ü.com',
            "a\x00ü.com",
            "a\\ü.com",
            "a\u037eü.com",  # NFC maps the Greek question mark to ';'
        ],
    )
    def test_non_ldh_ascii_inside_ulabel_rejected(self, value):
        assert normalize_or_none(value) is None
        with pytest.raises(HostnameError) as excinfo:
            normalize_or_reject(value)
        assert excinfo.value.reason == "label violates LDH rule"

    def test_surrogate_rejected_with_reason(self):
        with pytest.raises(HostnameError) as excinfo:
            normalize_or_reject("\ud800.com")
        assert excinfo.value.reason == "surrogate code point inside label"
        assert normalize_or_none("a\udfffb.com") is None

    def test_newline_before_a_dot_rejected(self):
        # ``$`` matches before a trailing newline; the label check must not.
        assert normalize_or_none("abc\n.com") is None
        with pytest.raises(HostnameError):
            validate_label("abc\n")

    @pytest.mark.parametrize("value", ["-ü.com", "ü-.com", "a.-bücher.de", "Ü-.com"])
    def test_edge_hyphen_ulabel_rejected_like_ascii(self, value):
        # ``-a.com`` and ``a-.com`` are refused; their U-label forms too.
        assert normalize_or_none(value) is None
        with pytest.raises(HostnameError) as excinfo:
            normalize_or_reject(value)
        assert excinfo.value.reason == "label violates LDH rule"

    @pytest.mark.parametrize("value", ["xn--ü.com", "XN--bücher.de", "a.xn--ü"])
    def test_ulabel_with_alabel_prefix_rejected(self, value):
        assert normalize_or_none(value) is None
        with pytest.raises(HostnameError) as excinfo:
            normalize_or_reject(value)
        assert excinfo.value.reason == "U-label carries the A-label prefix"

    @pytest.mark.parametrize(
        "value", ["bücher.de", "a_ü.com", "x-ü.com", "ÄÖ.de", "ü-ü.com", "xn-ü.de"]
    )
    def test_ldh_ulabels_still_pass(self, value):
        assert normalize_or_reject(value) == value.lower()


class TestValidateLabel:
    def test_simple_ok(self):
        validate_label("example")

    def test_hyphen_interior_ok(self):
        validate_label("ex-ample")

    def test_leading_hyphen_rejected(self):
        with pytest.raises(HostnameError):
            validate_label("-example")

    def test_trailing_hyphen_rejected(self):
        with pytest.raises(HostnameError):
            validate_label("example-")

    def test_63_char_label_ok(self):
        validate_label("a" * 63)

    def test_64_char_label_rejected(self):
        with pytest.raises(HostnameError):
            validate_label("a" * 64)

    def test_empty_rejected(self):
        with pytest.raises(HostnameError):
            validate_label("")

    def test_single_char_ok(self):
        validate_label("x")
        validate_label("7")


class TestIpLiteral:
    @pytest.mark.parametrize("value", ["1.2.3.4", "255.255.255.255", "0.0.0.0"])
    def test_ipv4(self, value):
        assert is_ip_literal(value)

    @pytest.mark.parametrize("value", ["256.1.1.1", "1.2.3", "a.b.c.d", "1.2.3.4.5"])
    def test_not_ipv4(self, value):
        assert not is_ip_literal(value)

    def test_bracketed_ipv6(self):
        assert is_ip_literal("[2001:db8::1]")


class TestHostnameClass:
    def test_labels(self):
        assert Hostname("a.b.com").labels == ("a", "b", "com")

    def test_reversed_labels(self):
        assert Hostname("a.b.com").reversed_labels == ("com", "b", "a")

    def test_label_count(self):
        assert Hostname("a.b.com").label_count == 3
        assert Hostname("com").label_count == 1

    def test_equality_by_normalized_form(self):
        assert Hostname("Example.COM") == Hostname("example.com.")

    def test_hashable(self):
        assert len({Hostname("a.com"), Hostname("A.com")}) == 1

    def test_parent(self):
        assert Hostname("a.b.com").parent() == Hostname("b.com")

    def test_parent_of_tld_is_none(self):
        assert Hostname("com").parent() is None

    def test_ancestors(self):
        names = [h.name for h in Hostname("a.b.co.uk").ancestors()]
        assert names == ["b.co.uk", "co.uk", "uk"]

    def test_is_subdomain_of(self):
        assert Hostname("a.b.com").is_subdomain_of("b.com")
        assert Hostname("a.b.com").is_subdomain_of(Hostname("com"))

    def test_not_subdomain_of_self(self):
        assert not Hostname("b.com").is_subdomain_of("b.com")

    def test_not_subdomain_by_string_suffix(self):
        # "evilb.com" ends with "b.com" as a string but is unrelated.
        assert not Hostname("evilb.com").is_subdomain_of("b.com")

    def test_suffix_of_length(self):
        assert Hostname("a.b.co.uk").suffix_of_length(2).name == "co.uk"

    def test_suffix_of_length_full(self):
        assert Hostname("a.b.com").suffix_of_length(3).name == "a.b.com"

    def test_suffix_of_length_out_of_range(self):
        with pytest.raises(ValueError):
            Hostname("a.com").suffix_of_length(3)
        with pytest.raises(ValueError):
            Hostname("a.com").suffix_of_length(0)

    def test_str(self):
        assert str(Hostname("Example.com")) == "example.com"


class TestSplitJoin:
    def test_roundtrip(self):
        assert join_labels(split_labels("a.b.c")) == "a.b.c"


def _outcome(normalize, value: str) -> tuple[str, str]:
    try:
        return "ok", normalize(value)
    except HostnameError as exc:
        return "rejected", exc.reason


_LABEL = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=63)
_NAMES = st.lists(_LABEL, min_size=1, max_size=6).map(".".join)
#: 250 to 255 characters: across the 253-character limit.
_LONG_NAMES = st.integers(min_value=58, max_value=63).map(
    lambda last: ".".join(["a" * 63] * 3 + ["b" * last])
)
_QUADS = st.tuples(*[st.integers(min_value=0, max_value=300)] * 4).map(
    lambda octets: ".".join(map(str, octets))
)
_RAW = st.text("abcXYZ0189-_. \t\nüÉß点", max_size=24)


class TestFastPathDifferential:
    """normalize_hostname's fast path (a valid lowercase ASCII name of
    at most 253 characters that does not end in a digit returns as is)
    must agree with the full path on every input: same name, or the same
    rejection reason."""

    @settings(max_examples=600, deadline=None)
    @given(
        st.one_of(_NAMES, _LONG_NAMES, _QUADS, _RAW).flatmap(
            lambda name: st.sampled_from(
                [name, name.upper(), f" {name} ", name + ".", name + "\n", name + "1"]
            )
        )
    )
    @example("ABC.Example.COM")
    @example("  www.example.com\t")
    @example("www.example.com.")
    @example("abc\n")
    @example("1.2.3.4")
    @example("255.255.255.255")
    @example("256.1.1.1")
    @example("host.example.9")
    @example("a1")
    @example(".".join(["a" * 63] * 3 + ["b" * 61]))  # 253 characters
    @example(".".join(["a" * 63] * 3 + ["b" * 62]))  # 254 characters
    @example("_dmarc.example.com")
    @example("bücher.de")
    @example("点看.example")
    @example("xn--bcher-kva.de")
    @example("")
    @example(".")
    def test_fast_path_agrees_with_full_path(self, value):
        assert _outcome(normalize_hostname, value) == _outcome(_normalize_full, value)
