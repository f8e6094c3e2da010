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
import urllib.error
import urllib.request

import pytest

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
