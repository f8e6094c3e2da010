"""HTTP tests for repro.serve: real server, ephemeral port, real sockets.

Covers the acceptance scenario end to end: a multithreaded client load
against ``/site`` and ``/batch`` while a background thread hot-swaps
PSL versions through ``/swap``, with ``/metrics`` asserted to reflect
the load afterwards — plus the structured-error and admission-control
contracts.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import tracemalloc
import urllib.error
import urllib.request

import pytest

from repro.serve.core import MAX_BODY_BYTES
from repro.serve.http import PslServer
from repro.serve.snapshots import SnapshotRegistry

from tests.test_serve_snapshots import make_store


@pytest.fixture()
def server():
    registry = SnapshotRegistry(make_store())
    instance = PslServer(("127.0.0.1", 0), registry, max_inflight=32)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        yield instance
    finally:
        instance.shutdown()
        instance.server_close()
        thread.join(timeout=5)


def fetch(url: str, *, data: bytes | None = None) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if data else {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def fetch_json(url: str, *, data: bytes | None = None) -> tuple[int, dict]:
    status, raw = fetch(url, data=data)
    return status, json.loads(raw)


class TestEndpoints:
    def test_site(self, server):
        status, body = fetch_json(server.url + "/site?host=www.example.co.uk")
        assert status == 200
        assert body["site"] == "example.co.uk"
        assert body["public_suffix"] == "co.uk"
        assert body["version"] == 2

    def test_site_pinned_version(self, server):
        status, body = fetch_json(server.url + "/site?host=www.example.co.uk&version=0")
        assert status == 200
        assert body["site"] == "co.uk" and body["version"] == 0

    def test_site_missing_parameter(self, server):
        status, body = fetch_json(server.url + "/site")
        assert status == 400
        assert body["error"]["kind"] == "missing_parameter"

    def test_site_malformed_hostname_is_structured_400(self, server):
        status, body = fetch_json(server.url + "/site?host=bad..name")
        assert status == 400
        assert body["error"]["kind"] == "invalid_hostname"
        assert "empty label" in body["error"]["reason"]

    def test_unknown_version_is_404(self, server):
        status, body = fetch_json(server.url + "/site?host=a.com&version=99")
        assert status == 404
        assert body["error"]["kind"] == "unknown_version"

    def test_batch(self, server):
        payload = json.dumps(
            {"hostnames": ["a.example.com", "bad..name", "b.github.io"]}
        ).encode()
        status, body = fetch_json(server.url + "/batch", data=payload)
        assert status == 200
        assert body["count"] == 3 and body["errors"] == 1
        sites = [answer.get("site") for answer in body["answers"]]
        assert sites[0] == "example.com" and sites[2] == "b.github.io"
        assert body["answers"][1]["error"]["kind"] == "invalid_hostname"

    def test_batch_negative_content_length_answers_without_reading_to_eof(
        self, server
    ):
        """Regression: ``Content-Length: -1`` used to reach
        ``rfile.read(-1)`` — read-until-EOF — so a keep-alive client
        could stream past the body ceiling.  The server must answer a
        structured 400 immediately, while the connection is still open
        and the client has sent no body at all."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /batch HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: -1\r\n"
                b"\r\n"
            )
            sock.settimeout(10)  # a read-to-EOF server would hang here
            # 4xx answers carry Connection: close, so EOF bounds the read.
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
            raw = b"".join(chunks)
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"400" in status_line
        _, _, body = raw.partition(b"\r\n\r\n")
        assert json.loads(body)["error"]["kind"] == "empty_body"

    def test_batch_malformed_body(self, server):
        status, body = fetch_json(server.url + "/batch", data=b"not json")
        assert status == 400
        assert body["error"]["kind"] == "malformed_json"
        status, body = fetch_json(
            server.url + "/batch", data=json.dumps({"hostnames": "x.com"}).encode()
        )
        assert status == 400
        assert body["error"]["kind"] == "malformed_batch"

    def test_classify(self, server):
        status, body = fetch_json(
            server.url + "/classify?page=shop.example.com&request=t.tracker.net"
        )
        assert status == 200
        assert body["third_party"] is True
        assert body["page"]["site"] == "example.com"

    def test_compare(self, server):
        status, body = fetch_json(server.url + "/compare?host=www.example.co.uk&old=0")
        assert status == 200
        assert body["diverges"] is True
        assert body["old"]["site"] == "co.uk"
        assert body["new"]["site"] == "example.co.uk"

    def test_versions(self, server):
        status, body = fetch_json(server.url + "/versions")
        assert status == 200
        assert body["count"] == 3
        assert body["active"]["index"] == 2
        assert [v["index"] for v in body["versions"]] == [0, 1, 2]
        status, body = fetch_json(server.url + "/versions?limit=1")
        assert len(body["versions"]) == 1

    def test_swap_roundtrip(self, server):
        status, body = fetch_json(server.url + "/swap?version=0", data=b"{}")
        assert status == 200 and body["active"]["index"] == 0
        status, body = fetch_json(server.url + "/site?host=www.example.co.uk")
        assert body["site"] == "co.uk"
        status, body = fetch_json(server.url + "/swap?version=latest", data=b"{}")
        assert status == 200 and body["active"]["index"] == 2

    def test_swap_with_query_and_body_keeps_keep_alive_in_sync(self, server):
        """Regression: ``POST /swap?version=V`` left its body unread, so
        on a kept-alive connection those bytes prefixed the next request
        line and the next request was answered 501."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/swap?version=0", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["active"]["index"] == 0
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["active"]["index"] == 0
        finally:
            conn.close()

    def test_healthz(self, server):
        status, body = fetch_json(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["active"]["index"] == 2

    def test_unknown_path_is_404(self, server):
        status, body = fetch_json(server.url + "/nowhere")
        assert status == 404
        assert body["error"]["kind"] == "not_found"

    def test_wrong_method_is_405(self, server):
        status, body = fetch_json(server.url + "/batch")  # GET on a POST route
        assert status == 405
        assert body["error"]["kind"] == "method_not_allowed"

    def test_metrics_exposition_format(self, server):
        fetch(server.url + "/site?host=a.example.com")
        status, raw = fetch(server.url + "/metrics")
        text = raw.decode()
        assert status == 200
        assert "# TYPE psl_serve_requests_total counter" in text
        assert "# TYPE psl_serve_request_seconds histogram" in text
        assert 'psl_serve_requests_total{endpoint="/site",status="200"}' in text
        assert 'psl_serve_request_seconds_bucket{endpoint="/site",le="+Inf"}' in text
        assert "psl_serve_snapshot_age_days" in text
        assert "psl_serve_snapshot_index 2" in text


class TestAdmissionControl:
    def test_overload_sheds_503_and_counts(self, server):
        # Drain every permit so the next gated request must be shed.
        permits = 0
        while server.gate.acquire(blocking=False):
            permits += 1
        assert permits == 32
        try:
            status, body = fetch_json(server.url + "/site?host=a.example.com")
            assert status == 503
            assert body["error"]["kind"] == "overloaded"
            # Observability bypasses the gate: still answering.
            status, body = fetch_json(server.url + "/healthz")
            assert status == 200
            status, raw = fetch(server.url + "/metrics")
            assert status == 200
            assert "psl_serve_rejected_total 1" in raw.decode()
        finally:
            for _ in range(permits):
                server.gate.release()
        status, _ = fetch_json(server.url + "/site?host=a.example.com")
        assert status == 200


class TestHotSwapUnderLoad:
    """The acceptance scenario: concurrent clients + live hot-swaps."""

    CLIENTS = 4
    REQUESTS_PER_CLIENT = 30
    SWAPS = 25

    def test_multithreaded_clients_survive_swaps_and_metrics_reflect_load(self, server):
        legal = {
            index: server.registry.resident(index).match("www.example.co.uk").site
            for index in range(3)
        }
        batch_hosts = [f"h{i}.example.co.uk" for i in range(20)]
        errors: list[str] = []
        barrier = threading.Barrier(self.CLIENTS + 1)

        def client(slot: int) -> None:
            try:
                barrier.wait()
                for _ in range(self.REQUESTS_PER_CLIENT):
                    status, body = fetch_json(server.url + "/site?host=www.example.co.uk")
                    if status != 200:
                        errors.append(f"single got {status}")
                        continue
                    if body["site"] != legal[body["version"]]:
                        errors.append(f"torn answer: {body}")
                    payload = json.dumps({"hostnames": batch_hosts}).encode()
                    status, body = fetch_json(server.url + "/batch", data=payload)
                    if status != 200:
                        errors.append(f"batch got {status}")
                        continue
                    versions = {answer["version"] for answer in body["answers"]}
                    if versions != {body["version"]}:
                        errors.append(f"batch not pinned: {versions}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        def swapper() -> None:
            try:
                barrier.wait()
                for swap in range(self.SWAPS):
                    status, _ = fetch_json(
                        server.url + f"/swap?version={swap % 3}", data=b"{}"
                    )
                    if status != 200:
                        errors.append(f"swap got {status}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in range(self.CLIENTS)
        ]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:5]

        # /metrics must reflect the load just applied.
        _, raw = fetch(server.url + "/metrics")
        text = raw.decode()
        metrics = {}
        for line in text.splitlines():
            if line.startswith("#") or " " not in line:
                continue
            name, value = line.rsplit(" ", 1)
            metrics[name] = float(value)

        singles = self.CLIENTS * self.REQUESTS_PER_CLIENT
        assert metrics['psl_serve_requests_total{endpoint="/site",status="200"}'] == singles
        assert metrics['psl_serve_requests_total{endpoint="/batch",status="200"}'] == singles
        assert metrics['psl_serve_requests_total{endpoint="/swap",status="200"}'] == self.SWAPS
        assert metrics['psl_serve_request_seconds_count{endpoint="/site"}'] == singles
        assert metrics['psl_serve_request_seconds_sum{endpoint="/site"}'] > 0
        assert metrics["psl_serve_snapshot_swaps_total"] >= 1
        assert (
            metrics["psl_serve_hostname_lookups_total"]
            == singles + singles * len(batch_hosts)
        )


class TestAdoptedListenSocket:
    def test_worker_that_loses_the_accept_race_stays_stoppable(self):
        # Pre-fork workers share one listening fd, so a connection wakes
        # every worker's selector but only one accept() wins.  The
        # losers must go back to their serve loop instead of parking in
        # accept(), where shutdown() would wait on them forever.
        listener = socket.create_server(("127.0.0.1", 0))
        server = PslServer(
            ("127.0.0.1", 0), SnapshotRegistry(make_store()), listen_socket=listener
        )
        returned = threading.Event()

        def lose_the_race() -> None:
            server._handle_request_noblock()  # selector said ready; nothing to accept
            returned.set()

        try:
            threading.Thread(target=lose_the_race, daemon=True).start()
            assert returned.wait(timeout=5)
        finally:
            server.server_close()


class TestSmokeHarness:
    def test_run_smoke_passes_against_a_live_server(self, server, capsys):
        from repro.serve.cli import run_smoke

        failures = run_smoke(server.url)
        assert failures == []
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestPrefixStore:
    def test_out_of_range_counts_are_rejected(self):
        from repro.serve.cli import prefix_store

        full = make_store()
        for count in (0, len(full) + 1):
            with pytest.raises(ValueError, match="out of range"):
                prefix_store(full, count)


class Wire:
    """One raw keep-alive connection whose answers ``http.client`` parses.

    Requests go out as exact bytes (pipelined, split, malformed — what
    a real client library would never send); each answer is read with
    ``http.client.HTTPResponse`` off one shared buffered reader, so
    pipelined answers stay in order, and every one must carry ``Date``
    and ``Content-Length``.
    """

    def __init__(self, server: PslServer) -> None:
        self.sock = socket.create_connection(server.server_address[:2], timeout=10)
        self.file = self.sock.makefile("rb")

    # the socket-and-file surface HTTPResponse reads through
    def makefile(self, *args: object) -> "Wire":
        return self

    def readline(self, limit: int = -1) -> bytes:
        return self.file.readline(limit)

    def read(self, size: int = -1) -> bytes:
        return self.file.read(size)

    def close(self) -> None:  # HTTPResponse closes its fp once the body is read
        pass

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def answer(self) -> tuple[http.client.HTTPResponse, dict]:
        response = http.client.HTTPResponse(self)
        response.begin()
        body = response.read()
        assert response.getheader("Date")
        assert response.getheader("Content-Length") == str(len(body))
        return response, json.loads(body)

    def closed_by_server(self) -> bool:
        return self.file.read(1) == b""

    def __enter__(self) -> "Wire":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.file.close()
        self.sock.close()


SITE = b"GET /site?host=www.example.co.uk HTTP/1.1\r\nHost: t\r\n\r\n"


class TestKeepAliveLoop:
    def test_pipelined_requests_in_one_send(self, server):
        with Wire(server) as wire:
            wire.send(SITE + b"GET /site?host=a.github.io HTTP/1.1\r\nHost: t\r\n\r\n")
            first, body = wire.answer()
            assert first.status == 200 and body["site"] == "example.co.uk"
            second, body = wire.answer()
            assert second.status == 200 and body["site"] == "a.github.io"

    def test_request_delivered_one_byte_per_send(self, server):
        with Wire(server) as wire:
            for byte in SITE:
                wire.send(bytes([byte]))
            response, body = wire.answer()
            assert response.status == 200 and body["site"] == "example.co.uk"

    def test_http10_closes_by_default(self, server):
        with Wire(server) as wire:
            wire.send(b"GET /healthz HTTP/1.0\r\n\r\n")
            response, _ = wire.answer()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert wire.closed_by_server()

    def test_http10_honours_keep_alive(self, server):
        with Wire(server) as wire:
            for _ in range(2):
                wire.send(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                response, _ = wire.answer()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"

    def test_connection_close_is_honoured(self, server):
        with Wire(server) as wire:
            wire.send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            response, _ = wire.answer()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert wire.closed_by_server()

    def test_expect_100_continue_on_a_large_batch(self, server):
        hosts = [f"h{i}.example.co.uk" for i in range(100)]
        payload = json.dumps({"hostnames": hosts}).encode()
        assert len(payload) > 1024  # the size at which curl sends Expect
        with Wire(server) as wire:
            wire.send(
                b"POST /batch HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n" % len(payload)
            )
            assert wire.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert wire.readline() == b"\r\n"
            wire.send(payload)
            response, body = wire.answer()
            assert response.status == 200 and body["count"] == len(hosts)
            wire.send(SITE)  # still in sync
            assert wire.answer()[0].status == 200

    def test_every_response_carries_date_and_content_length(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        batch = json.dumps({"hostnames": ["a.example.com"]}).encode()
        try:
            for method, path, body in [
                ("GET", "/site?host=www.example.co.uk", None),
                ("POST", "/batch", batch),
                ("GET", "/metrics", None),
                ("GET", "/nowhere", None),
                ("GET", "/batch", None),
                ("GET", "/site?host=bad..name", None),
            ]:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                payload = response.read()
                assert response.getheader("Date"), path
                assert response.getheader("Content-Length") == str(len(payload)), path
                assert response.getheader("Content-Type"), path
        finally:
            conn.close()


class TestBodyAccounting:
    def test_get_with_an_unread_body_keeps_keep_alive_in_sync(self, server):
        """Regression: a body the core never read stayed on the socket,
        and the next request was answered ``501 ('helloGET')``."""
        with Wire(server) as wire:
            wire.send(
                b"GET /site?host=www.example.co.uk HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 5\r\n\r\nhello" + SITE
            )
            for _ in range(2):
                response, body = wire.answer()
                assert response.status == 200 and body["site"] == "example.co.uk"
                assert response.getheader("Connection") is None

    def test_unread_body_is_discarded_in_bounded_reads(self, server):
        body = b"x" * (2 << 20)
        head = b"GET /site?host=www.example.co.uk HTTP/1.1\r\nHost: t\r\n"
        head += b"Content-Length: %d\r\n\r\n" % len(body)
        with Wire(server) as wire:
            tracemalloc.start()
            try:
                wire.send(head)
                wire.send(body)
                wire.send(SITE)
                for _ in range(2):
                    response, answer = wire.answer()
                    assert response.status == 200 and answer["site"] == "example.co.uk"
                    assert response.getheader("Connection") is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < len(body) // 4  # never the whole body in one buffer

    def test_unread_body_past_the_ceiling_closes(self, server):
        with Wire(server) as wire:
            wire.send(
                b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
            )
            response, _ = wire.answer()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert wire.closed_by_server()

    def test_unsolicited_continue_body_closes_instead_of_waiting(self, server):
        # The peer waits for 100 Continue before sending; the core never
        # read, so discarding would block — the connection closes.
        with Wire(server) as wire:
            wire.send(
                b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n"
            )
            response, _ = wire.answer()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert wire.closed_by_server()


class TestFramingRefusals:
    """Requests the loop cannot frame are answered, then the connection closes."""

    def refused(self, server, raw: bytes, status: int, kind: str | None) -> dict:
        with Wire(server) as wire:
            wire.send(raw)
            response, body = wire.answer()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            if kind is not None:
                assert body["error"]["kind"] == kind
            assert wire.closed_by_server()
        return body

    def test_transfer_encoding_is_501(self, server):
        """Regression: chunk bytes after a 200 were parsed as the next request."""
        self.refused(
            server,
            b"GET /site?host=a.com HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
            501, "unsupported_transfer_encoding",
        )

    def test_conflicting_content_lengths_are_400(self, server):
        self.refused(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            400, "invalid_content_length",
        )

    @pytest.mark.parametrize("value", [b"abc", b"0x10", b"1.5", b"+5", b""])
    def test_non_decimal_content_length_is_400(self, server, value):
        self.refused(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n",
            400, "invalid_content_length",
        )

    def test_request_line_past_64_kib_is_414(self, server):
        self.refused(
            server, b"GET /site?host=" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n",
            414, "request_line_too_long",
        )

    def test_more_than_100_header_lines_is_431(self, server):
        headers = b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(101))
        self.refused(server, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n", 431,
                     "headers_too_large")

    def test_100_header_lines_are_accepted(self, server):
        headers = b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(100))
        with Wire(server) as wire:
            wire.send(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            assert wire.answer()[0].status == 200

    @pytest.mark.parametrize(
        "line", [b"GARBAGE\r\n", b"GET /healthz\r\n", b"GET /healthz HTTP/2.0\r\n",
                 b"GET / HTTP/1.1 extra\r\n"]
    )
    def test_malformed_request_line_is_400(self, server, line):
        self.refused(server, line + b"\r\n", 400, "malformed_request_line")

    @pytest.mark.parametrize(
        "header",
        [b"Content-Length : 5", b"Content-Length\t: 5", b" Content-Length: 5",
         b"\tContent-Length: 5", b"X-Pad : 1", b": 5"],
    )
    def test_space_before_colon_or_folded_header_is_400(self, server, header):
        """RFC 9112 §5.1/§5.2: such a line is refused, never framed.

        Regression: the first three framed a 5-byte body and answered 200.
        """
        raw = b"POST /batch HTTP/1.1\r\nHost: t\r\n" + header + b"\r\n\r\n12345"
        self.refused(server, raw, 400, "malformed_header")

    def test_folded_continuation_line_is_400(self, server):
        raw = b"GET /healthz HTTP/1.1\r\nX-Long: a\r\n  b: c\r\n\r\n"
        self.refused(server, raw, 400, "malformed_header")

    def test_target_urlsplit_cannot_split_is_400(self, server):
        """Regression: the ValueError escaped the loop and the peer got no answer."""
        self.refused(server, b"GET //[::1/site?host=a.com HTTP/1.1\r\n\r\n", 400,
                     "malformed_request_target")

    @pytest.mark.parametrize("method", [b"HEAD", b"PUT", b"DELETE"])
    def test_other_methods_are_501(self, server, method):
        body = self.refused(server, method + b" /site?host=a.com HTTP/1.1\r\n\r\n", 501,
                            "method_not_implemented")
        assert body["error"]["method"] == method.decode()


@pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"), reason="no SO_REUSEPORT")
class TestReusePort:
    def test_two_servers_share_one_port(self):
        """The fleet's bind strategy: set by hand, since ``allow_reuse_port``
        only exists on Python 3.11+ and the package supports 3.10."""
        registry = SnapshotRegistry(make_store())
        first = PslServer(("127.0.0.1", 0), registry, reuse_port=True)
        try:
            second = PslServer(first.server_address[:2], registry, reuse_port=True)
            try:
                for instance in (first, second):
                    option = instance.socket.getsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT)
                    assert option != 0
            finally:
                second.server_close()
        finally:
            first.server_close()
