"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e -m bench``.

They check the harness's own arithmetic and framing, not the program:
span self times, percentile reporting, CPU placement,
the load loops' failure counting, the raw HTTP client, the verdict
rule and ``--check-config``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import socket
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from benchmarks.e2e import serving
from benchmarks.e2e.compare import check_config, check_config_main
from benchmarks.e2e.rawhttp import HttpResponse, RawConnection
from benchmarks.e2e.stats import distribution, nearest_rank, tail_percentile, verdict
from benchmarks.e2e.trace import Tracer, self_after, self_times


def _record(id, name, parent, start, end, busy=None, n=1):
    return {"id": id, "name": name, "parent": parent, "rid": 1, "start": start, "end": end,
            "n": n, "busy": end - start if busy is None else busy, "pid": 1}


# -- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    records = [
        _record(1, "root", None, 0, 100),
        _record(2, "child", 1, 10, 40),
        _record(3, "grandchild", 2, 15, 25),
        _record(4, "hot", 1, 50, 90, busy=20, n=7),  # an aggregate: busy < extent
    ]
    assert self_times(records) == {"root": 50, "child": 20, "grandchild": 10, "hot": 20}
    # Self times partition the root's busy time.
    assert sum(self_times(records).values()) == 100


def test_self_after_splits_a_span_at_its_marker_child():
    records = [
        _record(1, "run", None, 0, 100),
        _record(2, "execute", 1, 10, 60),
        _record(3, "read", 1, 70, 90, busy=15, n=3),
    ]
    # After execute ends at 60: 40 ns of run, of which read took 15.
    assert self_after(records, "run", "execute") == 25


def _fake_module(monkeypatch):
    module = types.ModuleType("e2e_fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return sum(module.inner(i) for i in module.produce(x))

    def produce(n):
        yield from range(n)

    module.inner, module.outer, module.produce = inner, outer, produce
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_tracer_nests_spans_and_folds_hot_calls(monkeypatch):
    module = _fake_module(monkeypatch)
    tracer = Tracer()
    assert tracer.wrap("e2e_fake_layers:outer", "outer")
    assert tracer.wrap("e2e_fake_layers:inner", "inner", kind="aggregate")
    assert tracer.wrap("e2e_fake_layers:produce", "produce", kind="generator")
    assert not tracer.wrap("e2e_fake_layers:renamed", "gone")
    assert module.outer(5) == 15
    tracer.finish()
    tracer.uninstall()
    assert tracer.absent == ["gone"]
    assert module.inner(1) == 2 and module.outer.__name__ == "outer"

    by_name = {record["name"]: record for record in tracer.records}
    root = by_name["outer"]
    assert by_name["inner"]["n"] == 5 and by_name["inner"]["parent"] == root["id"]
    assert by_name["produce"]["parent"] == root["id"]
    assert {record["rid"] for record in tracer.records} == {root["id"]}
    selfs = self_times(tracer.records)
    assert abs(sum(selfs.values()) - root["busy"]) < 1e-6
    assert all(value >= 0 for value in selfs.values())


def test_tracer_flush_writes_each_record_once(tmp_path, monkeypatch):
    module = _fake_module(monkeypatch)
    tracer = Tracer()
    tracer.wrap("e2e_fake_layers:outer", "outer")
    module.outer(2)
    path = str(tmp_path / "spans.jsonl")
    tracer.flush(path)
    module.outer(2)
    tracer.flush(path)
    tracer.uninstall()
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    assert [line["name"] for line in lines] == ["outer", "outer"]


# -- percentiles ---------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(21) == 50.0
    assert tail_percentile(10) is None
    values = list(range(1000))
    dist = distribution(values)
    assert dist.top_pct == 99.0 and dist.top == 989  # ten values (990..999) beyond
    assert sum(1 for v in values if v > dist.top) >= 10
    assert dist.p95 == dist.tail == 949 and dist.n == 1000
    assert nearest_rank([1, 2, 3, 4], 50) == 2


def test_small_samples_gate_the_mean_instead_of_an_unsupported_tail():
    small = distribution([3.0, 1.0, 2.0, 10.0])
    assert small.p50 == 2.5 and small.mean == small.tail == 4.0
    assert small.p95 is None and small.top is None and small.top_pct is None
    assert distribution(list(range(199))).p95 is None  # 9 samples beyond p95
    assert distribution(list(range(200))).p95 == 189


# -- CPU placement and the load loops -------------------------------------------


def test_placement_shares_the_allowed_cpus_and_pinning_is_undone():
    if not hasattr(os, "sched_getaffinity"):
        assert serving.placement(2) == [None, None]
        return
    allowed = os.sched_getaffinity(0)
    cpus = serving.placement(len(allowed) + 1)
    assert set(cpus) == allowed and cpus[0] == cpus[-1] == min(allowed)
    with serving.pinned(cpus[-1]):
        assert os.sched_getaffinity(0) == {cpus[-1]}
    assert os.sched_getaffinity(0) == allowed


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def send_json(self, payload, **dumps):
        body = json.dumps(payload, **dumps).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _SiteHandler(_Handler):
    def do_GET(self):  # noqa: N802
        self.send_json({"site": self.path.split("=", 1)[1], "version": 1})


class _BrokenHandler(_Handler):
    """Answers every request with bytes that are not an HTTP response."""

    def do_GET(self):  # noqa: N802
        self.wfile.write(b"NOT-HTTP at all\r\n\r\n")
        self.close_connection = True


@contextlib.contextmanager
def _http_server(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_closed_loop_over_real_sockets_keeps_every_50th_answer():
    checked = serving.Checked()
    zipf = serving.Zipf(["a.example", "b.example", "c.example"])
    with _http_server(_SiteHandler) as port:
        latencies, elapsed = serving.closed_loop_site(port, 0.3, random.Random(3), zipf, checked)
    assert latencies and checked.failed == 0 and checked.attempted == len(latencies)
    assert all(ms > 0 for ms in latencies) and sum(latencies) / 1e3 <= elapsed
    assert len(checked.answers) == len(latencies) // serving.CHECK_EVERY
    assert all(host == site for host, _, site in checked.answers)


def test_load_loops_count_broken_responses_as_failed():
    checked = serving.Checked()
    zipf = serving.Zipf(["a.example", "b.example"])
    with _http_server(_BrokenHandler) as port:
        latencies, _ = serving.closed_loop_site(port, 0.2, random.Random(4), zipf, checked)
    assert latencies == [] and checked.attempted > 0
    assert checked.failed == checked.attempted == len(checked.errors)
    assert all(error.startswith("ValueError: malformed status line") for error in checked.errors)


def test_a_load_thread_that_dies_fails_the_run():
    ran = []

    def dies():
        raise KeyError("answers")

    with pytest.raises(RuntimeError, match="1 load thread") as info:
        serving.run_threads([lambda: ran.append(1), dies])
    assert ran == [1] and isinstance(info.value.__cause__, KeyError)


def test_batch_answer_reads_the_version_from_the_json():
    compact = b'{"answers":[{"site":"a.example"},{"site":"b.example"}],"version":7}'
    version, answers = serving.batch_answer(HttpResponse(200, {}, compact), 2)
    assert version == 7 and [answer["site"] for answer in answers] == ["a.example", "b.example"]
    spaced = json.dumps({"version": 3, "answers": [{"site": "x.example"}]}, indent=2).encode()
    assert serving.batch_answer(HttpResponse(200, {}, spaced), 1)[0] == 3
    for status, body, count in ((503, compact, 2), (200, compact, 3), (200, b"[]", 0),
                                (200, b'{"version": "7", "answers": []}', 0)):
        with pytest.raises((ValueError, TypeError)):
            serving.batch_answer(HttpResponse(status, {}, body), count)


def test_fleet_load_times_only_the_read_phase_and_checks_swaps():
    class Fleet(_Handler):
        """Two workers' worth of ``/healthz``, compact-JSON ``/batch`` and ``/swap``."""

        version = 5
        workers = itertools.count()

        def do_GET(self):  # noqa: N802
            self.send_json({"worker": next(Fleet.workers)} if self.path == "/healthz" else {})

        def do_POST(self):  # noqa: N802
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if self.path.startswith("/swap?version="):
                Fleet.version = int(self.path.rsplit("=", 1)[1])
                self.send_json({"version": Fleet.version})
            else:
                answers = [{"site": host} for host in body["hostnames"]]
                self.send_json({"answers": answers, "version": Fleet.version}, separators=(",", ":"))

    checked = serving.Checked()
    with _http_server(Fleet) as port:
        load = serving.fleet_load(port, ["a.example", "b.example"], (5, 2), 1.0, 0, checked)
    assert checked.failed == 0 and not checked.errors and not load["swap_failures"]
    assert load["swap_visible_ms"] and Fleet.version in (5, 2)
    assert load["timed"] and len(load["timed"]) < load["batches"]
    assert load["read_s"] == pytest.approx(1.0 - serving.SWAP_SHARE)
    assert checked.answers and all(host == site and version in (5, 2) for host, version, site in checked.answers)


# -- the raw HTTP client -------------------------------------------------------


def _feed(sock: socket.socket, payload: bytes) -> threading.Thread:
    def send():
        for i in range(len(payload)):
            sock.sendall(payload[i:i + 1])  # worst-case fragmentation

    thread = threading.Thread(target=send)
    thread.start()
    return thread


def test_raw_client_frames_when_content_length_is_the_last_header():
    client, server = socket.socketpair()
    responses = (
        b"HTTP/1.1 200 OK\r\nServer: x\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n"
        b'{"site": 1}'
        b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Type: text/plain\r\n\r\n"
        b"next"
        b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nConnection: close\r\n\r\n"
        b"{}"
    )
    feeder = _feed(server, responses)
    conn = RawConnection.from_socket(client)
    first, second, third = conn.receive(), conn.receive(), conn.receive()
    feeder.join(timeout=5)
    assert (first.status, first.body) == (200, b'{"site": 1}')
    assert first.headers["content-length"] == "11"
    assert (second.status, second.body) == (200, b"next")
    assert (third.status, third.body) == (404, b"{}") and conn.closed
    conn.close()
    server.close()


def test_raw_client_request_bytes():
    client, server = socket.socketpair()
    conn = RawConnection.from_socket(client, host="h:1")
    conn.send("POST", "/swap?version=3", b"{}", close=True)
    data = b""
    while not data.endswith(b"{}"):
        data += server.recv(1024)
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.split(b"\r\n") == [
        b"POST /swap?version=3 HTTP/1.1", b"Host: h:1", b"Content-Type: application/json",
        b"Content-Length: 2", b"Connection: close",
    ]
    assert body == b"{}"
    conn.close()
    server.close()


# -- verdicts and the config -----------------------------------------------------


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert verdict(parent, [v * 0.8 for v in parent], better="lower", bound=0.1) == "better"
    assert verdict(parent, [v * 1.2 for v in parent], better="lower", bound=0.1) == "worse"
    assert verdict(parent, [v * 1.01 for v in parent], better="lower", bound=0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, [v * 1.01 for v in noisy], better="higher", bound=0.1) == "unresolved"
    # A spread wider than the bound hides a regression, unless every run
    # of the change reads better than every run of the parent.
    assert verdict(noisy, [149.0] * 10, better="higher", bound=0.1) == "unresolved"
    assert verdict(noisy, [151.0] * 10, better="higher", bound=0.1) == "unchanged"
    assert verdict(noisy, [49.0] * 10, better="lower", bound=0.1) == "unchanged"
    assert verdict(noisy, [151.0] * 10, better="lower", bound=0.1) == "worse"
    # Nine pairs are too few to claim a gain, however clear.
    assert verdict(parent[:9], [v * 0.5 for v in parent[:9]], better="lower", bound=0.1) == "unchanged"


def test_check_config_passes_on_the_committed_file():
    assert check_config_main() == 0


def test_check_config_rejects_broken_configs():
    with open(serving.world.BENCHMARK_JSON, encoding="utf-8") as handle:
        good = json.load(handle)
    assert check_config(good) == []

    def broken(mutate):
        config = json.loads(json.dumps(good))
        mutate(config)
        return check_config(config)

    assert broken(lambda c: c["end_to_end"][0].pop("bound"))
    assert broken(lambda c: c["end_to_end"][1].update(bound=0.5))
    assert broken(lambda c: c["per_layer"].append({"name": "x.unmeasured_s", "unit": "s", "better": "lower"}))
    assert broken(lambda c: c["per_layer"][0].update(name="-bad name"))
    assert broken(lambda c: c["workloads"].pop())
    assert broken(lambda c: c.update(command=["python3", "src/repro/cli.py"]))
