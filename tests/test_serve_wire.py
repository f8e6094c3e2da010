"""Differential tests for the serving tier's wire bodies.

``/batch`` writes its body straight from compact lookup rows through a
``%`` template, and every endpoint answers off
:meth:`PublicSuffixList.lookup`.  These properties pin both to an
independent reference: the object-built answer shape of each endpoint,
computed with the rule-scanning :func:`~repro.psl.trie.naive_prevailing`
oracle instead of a trie, then passed through :func:`json.dumps`.  They
run over dict and packed snapshots alike, on hostnames mixing case,
trailing dots, IDN labels, wildcard and exception rules, names that are
public suffixes themselves, and malformed items.
"""

from __future__ import annotations

import datetime
import json
import re
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.history.store import VersionStore
from repro.net.errors import HostnameError
from repro.net.hostname import normalize_or_reject
from repro.psl.idna import to_ascii
from repro.psl.rules import Rule, RuleKind
from repro.psl.trie import naive_prevailing
from repro.serve.core import Request, RequestCore, error_body

from tests.test_serve_snapshots import make_registry

RULES_V0 = ("com", "net", "uk", "jp", "io", "点看")
RULES_V1 = ("co.uk", "github.io", "*.kawasaki.jp", "!city.kawasaki.jp", "example.点看")

LABELS = [
    "www", "a", "example", "city", "kawasaki", "jp", "co", "uk", "github", "io",
    "com", "net", "zz", "bücher", "点看", "xn--3pxu8k", "foo_bar", "x-y", "ÄÖ",
]
MALFORMED = [
    "", ".", "a..b", "-a.com", "a-.com", "ü<x>.com", 'a"ü.com', "a\\b.com",
    "1.2.3.4", "[::1]", "a b.com", "x" * 64 + ".com", "点" * 60 + ".com",
    "abc\n.com", "a\x00ü.com",
]
#: What every string spliced into an answered row must look like.
WIRE_SAFE = re.compile(r"[a-z0-9_.-]+")


def _store() -> VersionStore:
    store = VersionStore()
    store.commit_rules(datetime.date(2020, 1, 1), added=[Rule.parse(t) for t in RULES_V0])
    store.commit_rules(datetime.date(2022, 6, 1), added=[Rule.parse(t) for t in RULES_V1])
    return store


@pytest.fixture(scope="module", params=["dict", "packed"])
def core(request) -> RequestCore:
    return RequestCore(make_registry(_store(), request.param))


label = st.one_of(st.sampled_from(LABELS), st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True))
valid = st.lists(label, min_size=1, max_size=5).map(".".join).flatmap(
    lambda name: st.sampled_from([name, name.upper(), name.title(), name + ".", f" {name} "])
)
item = st.one_of(valid, valid, valid, st.sampled_from(MALFORMED), st.text(max_size=10))
PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# -- the reference: the object-built shapes, over a rule scan -----------------


def reference_site(snapshot, hostname: str) -> dict:
    """``SiteAnswer.to_json()`` as built before rows, with no trie."""
    name = to_ascii(normalize_or_reject(hostname))
    labels = name.split(".")
    rule = naive_prevailing(snapshot.psl.rules, tuple(reversed(labels)))
    if rule is None:
        suffix_length = 1
    elif rule.kind is RuleKind.EXCEPTION:
        suffix_length = rule.component_count - 1
    else:
        suffix_length = rule.component_count
    suffix = ".".join(labels[len(labels) - suffix_length :])
    registrable = (
        ".".join(labels[len(labels) - suffix_length - 1 :]) if len(labels) > suffix_length else None
    )
    return {
        "hostname": name,
        "site": registrable or suffix,
        "public_suffix": suffix,
        "registrable_domain": registrable,
        "is_public_suffix": registrable is None,
        "version": snapshot.index,
        "version_date": snapshot.date.isoformat(),
    }


def reference_row(snapshot, hostname: str) -> dict:
    try:
        return reference_site(snapshot, hostname)
    except HostnameError as exc:
        return {"hostname": str(exc.value), "error": {"kind": "invalid_hostname", "reason": exc.reason}}


def reference_or_400(build) -> tuple[int, bytes]:
    try:
        return 200, json.dumps(build()).encode()
    except HostnameError as exc:
        body = error_body("invalid_hostname", value=exc.value, reason=exc.reason)
        return 400, json.dumps(body).encode()


def get(core: RequestCore, path: str, **query: str) -> tuple[int, bytes]:
    response = core.handle(Request("GET", path + "?" + urlencode(query)))
    return response.status, response.encoded()


def post_batch(core: RequestCore, hostnames: list[str]) -> tuple[int, bytes]:
    body = json.dumps({"hostnames": hostnames}).encode()
    response = core.handle(Request("POST", "/batch", len(body), lambda n: body[:n]))
    assert response.content_type == "application/json"
    return response.status, response.encoded()


# -- properties ---------------------------------------------------------------


@PROPERTY
@given(hosts=st.lists(st.one_of(item, st.just("\ud800.com")), max_size=24))
def test_batch_body_equals_the_object_built_shape(core, hosts):
    snapshot = core.registry.active
    rows = [reference_row(snapshot, host) for host in hosts]
    expected = {
        "version": snapshot.index,
        "version_date": snapshot.date.isoformat(),
        "count": len(rows),
        "errors": sum(1 for row in rows if "error" in row),
        "answers": rows,
    }
    assert post_batch(core, hosts) == (200, json.dumps(expected).encode())
    assert json.dumps(core.engine.batch(hosts).to_json()).encode() == json.dumps(expected).encode()
    for row in rows:
        if "error" not in row:
            spliced = [row["hostname"], row["site"], row["public_suffix"]]
            assert all(WIRE_SAFE.fullmatch(value) for value in spliced), row


@PROPERTY
@given(host=item.filter(bool))
def test_site_body_is_unchanged(core, host):
    snapshot = core.registry.active
    assert get(core, "/site", host=host) == reference_or_400(lambda: reference_site(snapshot, host))


@PROPERTY
@given(page=item.filter(bool), request=item.filter(bool))
def test_classify_body_is_unchanged(core, page, request):
    snapshot = core.registry.active

    def build() -> dict:
        page_json = reference_site(snapshot, page)
        request_json = reference_site(snapshot, request)
        return {
            "page": page_json,
            "request": request_json,
            "third_party": page_json["site"] != request_json["site"],
            "version": snapshot.index,
        }

    assert get(core, "/classify", page=page, request=request) == reference_or_400(build)


@PROPERTY
@given(host=item.filter(bool))
def test_compare_body_is_unchanged(core, host):
    old, new = core.registry.resident(0), core.registry.resident("latest")

    def build() -> dict:
        old_json, new_json = reference_site(old, host), reference_site(new, host)
        return {
            "hostname": normalize_or_reject(host),
            "old": old_json,
            "new": new_json,
            "diverges": old_json["site"] != new_json["site"],
        }

    assert get(core, "/compare", host=host, old="0") == reference_or_400(build)


def test_wildcard_exception_idn_and_suffix_rows(core):
    """Fixed rows for the rule kinds the generated names may miss."""
    body = json.loads(post_batch(core, [
        "a.b.kawasaki.jp", "www.city.kawasaki.jp", "github.io", "点看", "Example.点看.", "x.zz",
    ])[1])
    assert [row["site"] for row in body["answers"]] == [
        "a.b.kawasaki.jp", "city.kawasaki.jp", "github.io", "xn--3pxu8k",
        "example.xn--3pxu8k", "x.zz",
    ]
    assert [row["is_public_suffix"] for row in body["answers"]] == [
        False, False, True, True, True, False,
    ]


def test_edge_hyphen_and_prefixed_ulabels_are_error_rows(core):
    """U-labels obey the ASCII labels' hyphen rule and never carry ``xn--``."""
    status, raw = post_batch(core, ["-ü.com", "ü-.com", "xn--ü.com", "-a.com", "bücher.com"])
    body = json.loads(raw)
    assert status == 200 and body["count"] == 5 and body["errors"] == 4
    assert [row.get("error", {}).get("reason") for row in body["answers"]] == [
        "label violates LDH rule",
        "label violates LDH rule",
        "U-label carries the A-label prefix",
        "label violates LDH rule",
        None,
    ]
    assert body["answers"][4]["site"] == "xn--bcher-kva.com"
