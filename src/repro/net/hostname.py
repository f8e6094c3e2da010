"""Hostname parsing, validation, and normalization.

A *hostname* here is a DNS domain name as it appears in a URL authority:
a dot-separated sequence of labels, case-insensitive, at most 253
characters overall with each label between 1 and 63 characters
(RFC 1035 section 2.3.4).  Following browser behaviour (and the paper's
methodology, which strips URLs "to the domain name component"), hostnames
are normalized to lowercase with a trailing root dot removed.

Unicode hostnames are accepted and carried through verbatim at this
layer; conversion to ASCII-compatible (punycode) form is the job of
:mod:`repro.psl.idna`, since the PSL algorithm is defined over A-labels.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.net.errors import HostnameError

MAX_HOSTNAME_LENGTH = 253
MAX_LABEL_LENGTH = 63

# LDH rule ("letter-digit-hyphen") for ASCII labels; underscore is
# additionally tolerated because it is common in real crawl data
# (e.g. service records and sloppy CDN hostnames), matching how the
# HTTP Archive records names as observed on the wire.  Matched with
# ``fullmatch``: a ``$`` anchor also matches before a trailing newline
# and would admit ``"abc\n"`` as a label.
_ASCII_LABEL = r"[a-z0-9_](?:[a-z0-9_-]{0,61}[a-z0-9_])?"
_ASCII_LABEL_RE = re.compile(_ASCII_LABEL)
#: A whole valid ASCII name in one match, the common case's fast path.
_ASCII_NAME_RE = re.compile(rf"{_ASCII_LABEL}(?:\.{_ASCII_LABEL})*")

#: The characters an ASCII label may hold, for checking U-labels.
_LDH_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def is_ip_literal(value: str) -> bool:
    """Return True if ``value`` is an IPv4 dotted quad or a bracketed IPv6 literal.

    IP literals never participate in PSL grouping (they have no
    registrable domain), so callers typically filter them out before
    suffix matching.
    """
    if value.startswith("[") and value.endswith("]"):
        return True
    match = _IPV4_RE.match(value)
    if not match:
        return False
    return all(0 <= int(octet) <= 255 for octet in match.groups())


def validate_label(label: str) -> None:
    """Validate a single hostname label, raising :class:`HostnameError`.

    Non-ASCII labels (U-labels) are accepted as long as they are
    non-empty, within the length limit, free of whitespace, dots and
    surrogate code points, and — as under STD3 rules — every ASCII
    character of their IDNA-mapped form (lowercase, NFC) is LDH or
    ``_``; punycode encoding happens at conversion time.  So the A-label
    form of every accepted name is ``[a-z0-9_.-]``.
    """
    if not label:
        raise HostnameError(label, "empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise HostnameError(label, f"label longer than {MAX_LABEL_LENGTH} characters")
    if label.isascii():
        if not _ASCII_LABEL_RE.fullmatch(label):
            raise HostnameError(label, "label violates LDH rule")
    else:
        if any(ch.isspace() or ch == "." for ch in label):
            raise HostnameError(label, "whitespace or dot inside label")
        if _SURROGATE_RE.search(label):
            raise HostnameError(label, "surrogate code point inside label")
        mapped = unicodedata.normalize("NFC", label.lower())
        if any(ch.isascii() and ch not in _LDH_CHARS for ch in mapped):
            raise HostnameError(label, "label violates LDH rule")
        if mapped.startswith("-") or mapped.endswith("-"):
            raise HostnameError(label, "label violates LDH rule")
        if mapped.startswith("xn--"):
            raise HostnameError(label, "U-label carries the A-label prefix")


def split_labels(hostname: str) -> tuple[str, ...]:
    """Split a hostname into its dot-separated labels (left to right)."""
    return tuple(hostname.split("."))


def join_labels(labels: Iterable[str]) -> str:
    """Join labels back into a hostname string."""
    return ".".join(labels)


def normalize_hostname(value: str) -> str:
    """Normalize and validate a raw hostname string.

    Lowercases, strips surrounding whitespace and at most one trailing
    root dot, and validates the label structure.  Raises
    :class:`HostnameError` for anything a browser would refuse to put in
    the authority component.

    A value that is already a valid lowercase ASCII name of at most 253
    characters and does not end in a digit is its own normal form and
    cannot be an IPv4 literal, so it returns after one regex match;
    everything else takes the full path below.
    """
    if (
        len(value) <= MAX_HOSTNAME_LENGTH
        and _ASCII_NAME_RE.fullmatch(value) is not None
        and not value[-1].isdigit()
    ):
        return value
    return _normalize_full(value)


def _normalize_full(value: str) -> str:
    """:func:`normalize_hostname` without its fast path: every check."""
    candidate = value.strip().lower()
    if candidate.endswith("."):
        candidate = candidate[:-1]
    if not candidate:
        raise HostnameError(value, "empty hostname")
    if len(candidate) > MAX_HOSTNAME_LENGTH:
        raise HostnameError(value, f"hostname longer than {MAX_HOSTNAME_LENGTH} characters")
    if is_ip_literal(candidate):
        raise HostnameError(value, "IP literal is not a hostname")
    if candidate.isascii() and _ASCII_NAME_RE.fullmatch(candidate):
        return candidate
    for label in split_labels(candidate):
        try:
            validate_label(label)
        except HostnameError as exc:
            raise HostnameError(value, exc.reason) from exc
    return candidate


def normalize_or_reject(value: object) -> str:
    """The one normalize-or-reject gate shared by every ingest path.

    Request-serving (:mod:`repro.serve`) and streaming ingest
    (:mod:`repro.webgraph.stream`) both admit hostnames from sources no
    browser vetted — query strings, crawl exports — and both used to
    carry their own ad-hoc checks.  This helper is the single policy:
    :func:`normalize_hostname` (case, surrounding whitespace, one
    trailing root dot, label structure, IP-literal refusal) plus a
    proof that non-ASCII names survive IDNA conversion, since the PSL
    algorithm is defined over A-labels and a name that cannot reach
    A-label form can never be matched.

    Returns the normalized (still U-label) form; raises
    :class:`HostnameError` with a machine-readable ``reason`` otherwise.

    >>> normalize_or_reject("WWW.Example.COM.")
    'www.example.com'
    """
    if not isinstance(value, str):
        raise HostnameError(repr(value), "not a string")
    candidate = normalize_hostname(value)
    if not candidate.isascii():
        # Deferred import: IDNA encoding lives in the PSL layer, and
        # importing it at module scope would invert the net <- psl
        # layering for the many callers that never take this branch.
        from repro.psl.errors import PslError
        from repro.psl.idna import to_ascii

        try:
            to_ascii(candidate)  # validate encodability only
        except (PslError, UnicodeError) as exc:
            raise HostnameError(value, f"not IDNA-encodable: {exc}") from exc
    return candidate


def normalize_or_none(value: object) -> str | None:
    """:func:`normalize_or_reject`, with rejection as ``None``.

    The streaming counters use this form: a malformed crawl row should
    bump a ``skipped`` counter, not unwind the pass.

    >>> normalize_or_none("bad..name") is None
    True
    """
    try:
        return normalize_or_reject(value)
    except HostnameError:
        return None


@dataclass(frozen=True, slots=True)
class Hostname:
    """An immutable, validated, normalized hostname.

    Instances compare and hash by their normalized string form, so they
    can be used directly as dictionary keys in site-grouping maps.

    >>> Hostname("WWW.Example.COM.").labels
    ('www', 'example', 'com')
    """

    name: str

    def __init__(self, value: str) -> None:
        object.__setattr__(self, "name", normalize_hostname(value))

    @property
    def labels(self) -> tuple[str, ...]:
        """Labels left to right, e.g. ``('www', 'example', 'com')``."""
        return split_labels(self.name)

    @property
    def reversed_labels(self) -> tuple[str, ...]:
        """Labels right to left, the order used by the suffix trie."""
        return tuple(reversed(self.labels))

    @property
    def label_count(self) -> int:
        """Number of labels in the hostname."""
        return self.name.count(".") + 1

    def parent(self) -> "Hostname | None":
        """The hostname with its leftmost label removed, or None at a TLD.

        >>> Hostname("a.b.com").parent()
        Hostname(name='b.com')
        """
        labels = self.labels
        if len(labels) <= 1:
            return None
        return Hostname(join_labels(labels[1:]))

    def ancestors(self) -> Iterator["Hostname"]:
        """Yield every proper parent, nearest first.

        >>> [h.name for h in Hostname("a.b.com").ancestors()]
        ['b.com', 'com']
        """
        current = self.parent()
        while current is not None:
            yield current
            current = current.parent()

    def is_subdomain_of(self, other: "Hostname | str") -> bool:
        """True when ``self`` is a proper subdomain of ``other``."""
        other_name = other.name if isinstance(other, Hostname) else normalize_hostname(other)
        return self.name != other_name and self.name.endswith("." + other_name)

    def suffix_of_length(self, count: int) -> "Hostname":
        """The hostname formed by the rightmost ``count`` labels.

        >>> Hostname("a.b.co.uk").suffix_of_length(2).name
        'co.uk'
        """
        labels = self.labels
        if not 1 <= count <= len(labels):
            raise ValueError(f"suffix length {count} out of range for {self.name!r}")
        return Hostname(join_labels(labels[len(labels) - count :]))

    def __str__(self) -> str:
        return self.name
