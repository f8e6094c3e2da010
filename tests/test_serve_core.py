"""Direct tests for the transport-agnostic request core.

No sockets anywhere: a :class:`~repro.serve.core.Request` goes in, a
:class:`~repro.serve.core.Response` comes out.  This is the layer the
threaded server and every fleet worker share, so the routing, error
shape, admission, and epoch contracts are pinned here once.
"""

from __future__ import annotations

import json
import sys
import threading
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.core import (
    MAX_BATCH_HOSTNAMES,
    MAX_BODY_BYTES,
    AdmissionGate,
    Request,
    RequestCore,
    Response,
    error_body,
)
from repro.serve.snapshots import SnapshotRegistry

from tests.test_serve_snapshots import make_store


def make_core(**kwargs) -> RequestCore:
    return RequestCore(SnapshotRegistry(make_store()), **kwargs)


def get(core: RequestCore, target: str) -> Response:
    return core.handle(Request(method="GET", target=target))


def post(core: RequestCore, target: str, body: bytes = b"") -> Response:
    return core.handle(
        Request(
            method="POST",
            target=target,
            content_length=len(body),
            read=lambda n, data=body: data[:n],
        )
    )


class TestRouting:
    def test_site_roundtrip(self):
        core = make_core()
        response = get(core, "/site?host=www.example.co.uk")
        assert response.status == 200
        assert json.loads(response.encoded())["site"] == "example.co.uk"

    def test_trailing_slash_is_same_endpoint(self):
        core = make_core()
        assert get(core, "/site/?host=a.example.com").status == 200

    def test_unknown_path_is_structured_404(self):
        core = make_core()
        response = get(core, "/nope")
        assert response.status == 404
        assert response.payload == error_body("not_found", path="/nope")

    def test_wrong_method_is_405_with_allowed_list(self):
        core = make_core()
        response = post(core, "/site?host=a.com")
        assert response.status == 405
        assert response.payload["error"]["kind"] == "method_not_allowed"
        assert response.payload["error"]["allowed"] == ["GET"]
        response = get(core, "/swap?version=0")
        assert response.status == 405
        assert response.payload["error"]["allowed"] == ["POST"]

    def test_error_shape_is_identical_across_statuses(self):
        """Satellite contract: 400/404/405/413 all carry one JSON shape."""
        core = make_core()
        samples = [
            get(core, "/site"),                        # 400 missing param
            get(core, "/site?host=a.com&version=99"),  # 404 unknown version
            get(core, "/missing"),                     # 404 unknown path
            post(core, "/site?host=a.com"),            # 405
            post(core, "/batch", b'{"hostnames": []}'),
        ]
        oversized = core.handle(
            Request(method="POST", target="/batch", content_length=MAX_BODY_BYTES + 1)
        )
        samples.append(oversized)
        for response in samples:
            if response.status >= 400:
                assert set(response.payload) == {"error"}
                assert "kind" in response.payload["error"]
        assert oversized.status == 413
        assert oversized.payload["error"]["kind"] == "body_too_large"

    def test_batch_too_large_is_413(self):
        core = make_core()
        body = json.dumps({"hostnames": ["h"] * (MAX_BATCH_HOSTNAMES + 1)}).encode()
        response = post(core, "/batch", body)
        assert response.status == 413
        assert response.payload["error"]["kind"] == "batch_too_large"

    def test_negative_content_length_is_rejected_before_read(self):
        """``Content-Length: -1`` must never reach ``read()``: an
        ``rfile.read(-1)`` means read-until-EOF, which buffers whatever
        the client streams and bypasses the MAX_BODY_BYTES ceiling."""
        core = make_core()
        calls: list[int] = []

        def read(n: int) -> bytes:
            calls.append(n)
            return b""

        response = core.handle(
            Request(method="POST", target="/batch", content_length=-1, read=read)
        )
        assert response.status == 400
        assert response.payload["error"]["kind"] == "invalid_content_length"
        assert calls == []

    def test_internal_errors_become_500_not_exceptions(self):
        core = make_core()
        core.engine.site = lambda *a, **k: 1 / 0  # type: ignore[assignment]
        response = get(core, "/site?host=a.com")
        assert response.status == 500
        assert response.payload == error_body("internal")


class TestAdmission:
    def test_gate_sheds_503_and_counts(self):
        core = make_core(max_inflight=1)
        assert core.gate.acquire(blocking=False)  # occupy the only slot
        try:
            response = get(core, "/site?host=a.com")
        finally:
            core.gate.release()
        assert response.status == 503
        assert response.payload["error"]["kind"] == "overloaded"
        assert core.rejected_total.total() == 1

    def test_healthz_and_metrics_bypass_the_gate(self):
        core = make_core(max_inflight=1)
        assert core.gate.acquire(blocking=False)
        try:
            assert get(core, "/healthz").status == 200
            assert get(core, "/metrics").status == 200
        finally:
            core.gate.release()

    def test_metrics_recorded_before_response_returns(self):
        core = make_core()
        get(core, "/site?host=a.example.com")
        assert core.requests_total.value(endpoint="/site", status="200") == 1
        assert core.lookups_total.total() == 1

    def test_gate_counts_slots_and_never_blocks(self):
        gate = AdmissionGate(2)
        assert gate.acquire() and gate.acquire(blocking=False)
        assert not gate.acquire() and gate.inflight == 2
        with pytest.raises(ValueError):
            gate.acquire(blocking=True)
        gate.release()
        gate.release()
        assert gate.inflight == 0
        with pytest.raises(ValueError):
            gate.release()

    def test_concurrent_requests_lose_no_count(self):
        """More threads than cores, switching every few µs: the gate, the
        counters and the histogram must each see every request."""
        threads, per_thread, limit = 8, 150, 3
        core = make_core(max_inflight=limit)
        peak = [0]
        real_site = core.engine.site

        def site(*args, **kwargs):
            peak[0] = max(peak[0], core.inflight)
            return real_site(*args, **kwargs)

        core.engine.site = site  # type: ignore[method-assign]
        statuses: list[int] = []

        def client() -> None:
            for _ in range(per_thread):
                statuses.append(get(core, "/site?host=www.example.co.uk").status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(statuses) == threads * per_thread
        ok, shed = statuses.count(200), statuses.count(503)
        assert ok + shed == len(statuses) and ok > 0
        assert core.inflight == 0 and 1 <= peak[0] <= limit
        assert core.requests_total.value(endpoint="/site", status="200") == ok
        assert core.requests_total.value(endpoint="/site", status="503") == shed
        assert core.rejected_total.total() == shed
        assert core.lookups_total.total() == ok
        assert core.latency.count(endpoint="/site") == ok


class TestEpochs:
    def test_swap_reports_epoch(self):
        core = make_core()
        response = post(core, "/swap?version=0", b"{}")
        assert response.status == 200
        assert response.payload["active"]["index"] == 0
        assert response.payload["epoch"] == 1  # one swap = generation 1

    def test_healthz_reports_epoch_and_worker(self):
        core = make_core(worker_id=3)
        post(core, "/swap?version=0", b"{}")
        body = get(core, "/healthz").payload
        assert body["epoch"] == 1
        assert body["worker"] == 3

    def test_fleet_view_failure_never_breaks_healthz(self):
        def exploding_view() -> dict:
            raise RuntimeError("torn heartbeat")

        core = make_core(fleet_view=exploding_view)
        response = get(core, "/healthz")
        assert response.status == 200
        assert "torn heartbeat" in response.payload["fleet"]["error"]

    def test_draining_healthz_is_503_with_state(self):
        core = make_core()
        core.draining = True
        response = get(core, "/healthz")
        assert response.status == 503
        assert response.payload["status"] == "draining"


class TestResponses:
    def test_metrics_payload_is_bytes_exposition(self):
        core = make_core()
        response = get(core, "/metrics")
        assert isinstance(response.payload, bytes)
        assert response.content_type.startswith("text/plain")
        assert b"psl_serve_requests_total" in response.encoded()

    def test_batch_is_json_bytes(self):
        core = make_core()
        response = post(core, "/batch", b'{"hostnames": ["www.example.co.uk"]}')
        assert response.status == 200
        assert isinstance(response.payload, bytes)
        assert response.content_type == "application/json"
        assert json.loads(response.encoded())["answers"][0]["site"] == "example.co.uk"

    def test_json_endpoints_state_json(self):
        core = make_core()
        for target in ("/site?host=a.com", "/versions", "/healthz", "/nope"):
            assert get(core, target).content_type == "application/json"

    def test_json_payload_encodes(self):
        response = Response(200, {"a": 1})
        assert json.loads(response.encoded()) == {"a": 1}

    def test_unsupported_method_on_known_path_is_405(self):
        core = make_core()
        response = core.handle(Request(method="PUT", target="/site?host=a.com"))
        assert response.status == 405
        assert response.payload["error"]["allowed"] == ["GET"]


class TestValidation:
    def test_missing_parameter(self):
        core = make_core()
        response = get(core, "/site")
        assert response.status == 400
        assert response.payload["error"]["parameter"] == "host"

    def test_malformed_limit(self):
        core = make_core()
        response = get(core, "/versions?limit=many")
        assert response.status == 400
        assert response.payload["error"]["kind"] == "malformed_parameter"

    def test_negative_limit(self):
        core = make_core()
        response = get(core, "/versions?limit=-1")
        assert response.status == 400
        assert response.payload == error_body("malformed_parameter", parameter="limit")
        assert get(core, "/versions?limit=0").status == 200

    @pytest.mark.parametrize("host", ["ü<script>.com", 'a"ü.com', "a\x00ü.com"])
    def test_non_ldh_ulabel_is_400_on_site(self, host):
        core = make_core()
        response = get(core, "/site?" + urlencode({"host": host}))
        assert response.status == 400
        assert response.payload["error"]["kind"] == "invalid_hostname"
        assert response.payload["error"]["value"] == host

    def test_non_ldh_ulabel_is_an_error_row_in_batch(self):
        core = make_core()
        hosts = ["ü<script>.com", 'a"ü.com', "a\x00ü.com", "\ud800.com", "bücher.co.uk"]
        response = post(core, "/batch", json.dumps({"hostnames": hosts}).encode())
        assert response.status == 200
        body = json.loads(response.encoded())
        assert body["errors"] == 4
        assert [row["hostname"] for row in body["answers"]] == [
            *hosts[:4], "xn--bcher-kva.co.uk"
        ]
        assert [row["error"]["kind"] for row in body["answers"][:4]] == ["invalid_hostname"] * 4

    def test_empty_post_body(self):
        core = make_core()
        response = post(core, "/batch")
        assert response.status == 400
        assert response.payload["error"]["kind"] == "empty_body"

    def test_swap_spec_from_body(self):
        core = make_core()
        response = post(core, "/swap", json.dumps({"version": 0}).encode())
        assert response.status == 200
        assert response.payload["active"]["index"] == 0

    def test_swap_without_spec(self):
        core = make_core()
        response = post(core, "/swap", b"{}")
        assert response.status == 400
        assert response.payload["error"]["parameter"] == "version"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))


# -- the single target split, against the urlsplit / parse_qs reference -------

QUERY_TEXT = st.lists(
    st.sampled_from(list("aHz09-._~ /:@!$'()*,;ü点+?=\t%") + ["%2", "%41", "%zz", "%2B"]),
    max_size=6,
).map("".join)
PAIR = st.tuples(
    st.one_of(st.sampled_from(["host", "version", "a", ""]), QUERY_TEXT),
    st.sampled_from(["=", ""]),
    st.one_of(st.just(""), QUERY_TEXT),
).map("".join)
QUERY = st.one_of(
    st.just(""), st.just("?"), st.lists(PAIR, max_size=5).map(lambda pairs: "?" + "&".join(pairs))
)
PATH = st.lists(
    st.sampled_from(["site", "batch", "", "a%2Fb", "x:y", "ü", "a;b", ".."]), max_size=3
).map(lambda parts: "/" + "/".join(parts))
PREFIX = st.sampled_from([
    "", "", "", "//host", "//h.example:8080", "http://h.example", "HTTP://h", "https://[::1]:80",
    "//[::1", "site", "mailto:", " ", "\x01", "\t",
])
FRAGMENT = st.sampled_from(["", "", "#", "#frag", "#f?x=1"])
TARGET = st.one_of(
    st.builds(lambda *parts: "".join(parts), PREFIX, PATH, QUERY, FRAGMENT),
    st.text(max_size=24),
)


def reference_split(target: str) -> tuple[str, dict[str, str]]:
    parts = urlsplit(target)
    query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
    return parts.path.rstrip("/") or "/", query


class TestTargetSplit:
    @settings(max_examples=400, deadline=None)
    @given(target=TARGET)
    def test_endpoint_and_query_equal_the_urlsplit_reference(self, target):
        try:
            expected = reference_split(target)
        except ValueError:
            with pytest.raises(ValueError):
                Request("GET", target)
            return
        request = Request("GET", target)
        assert (request.endpoint, request.query()) == expected

    @pytest.mark.parametrize("target, endpoint, query", [
        ("/site?host=a.com&host=b.com", "/site", {"host": "b.com"}),
        ("/site?host=&version=2", "/site", {"version": "2"}),
        ("/site?", "/site", {}),
        ("/site?host=a%2Eb+c", "/site", {"host": "a.b c"}),
        ("//evil/site?host=a.com", "/site", {"host": "a.com"}),
        ("/site#x?host=a.com", "/site", {}),
        ("http://h.example/site/?host=a.com", "/site", {"host": "a.com"}),
        ("/site?host=a.\tcom", "/site", {"host": "a.com"}),
        ("/si\r\nte/?host=a.com", "/site", {"host": "a.com"}),
        ("/site?host=a\x01b", "/site", {"host": "a\x01b"}),
        ("/", "/", {}),
        ("", "/", {}),
    ])
    def test_fixed_targets(self, target, endpoint, query):
        request = Request("GET", target)
        assert (request.endpoint, request.query()) == (endpoint, query)
        assert reference_split(target) == (endpoint, query)
