"""Exception-safety regression tests for the metrics exposition.

The satellite contract: a gauge callback raising during a scrape must
yield a stale or omitted sample — never a 500 on ``/metrics``.  The
metrics endpoint is the one surface operators need *while* something
is broken, so 'something is broken' must not take it down.
"""

from __future__ import annotations

import re
import time

import pytest

from repro.serve.core import Request, RequestCore
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshots import SnapshotRegistry

from tests.test_serve_snapshots import make_store


class TestCallbackGaugeSafety:
    def test_never_sampled_raising_callback_is_omitted(self):
        registry = MetricsRegistry()
        registry.callback_gauge("boom", "always fails", lambda: 1 / 0)
        text = registry.render()
        assert "# HELP boom" in text  # metadata still present
        assert "\nboom " not in text  # but no sample line

    def test_raising_callback_serves_last_good_value(self):
        registry = MetricsRegistry()
        state = {"value": 7.0, "broken": False}

        def sample() -> float:
            if state["broken"]:
                raise RuntimeError("scrape-time failure")
            return state["value"]

        registry.callback_gauge("wobbly", "fails later", sample)
        assert "wobbly 7" in registry.render()
        state["broken"] = True
        assert "wobbly 7" in registry.render()  # stale, not absent
        state["broken"] = False
        state["value"] = 9.0
        assert "wobbly 9" in registry.render()  # recovers to live values

    def test_multi_callback_gauge_serves_last_good_family(self):
        registry = MetricsRegistry()
        state = {"broken": False}

        def sample() -> dict:
            if state["broken"]:
                raise RuntimeError("torn heartbeat file")
            return {"0": 4.0, "1": 4.0}

        registry.multi_callback_gauge("fleet", "per worker", ("worker",), sample)
        assert 'fleet{worker="0"} 4' in registry.render()
        state["broken"] = True
        text = registry.render()
        assert 'fleet{worker="0"} 4' in text
        assert 'fleet{worker="1"} 4' in text

    def test_multi_callback_gauge_never_sampled_is_omitted(self):
        registry = MetricsRegistry()
        registry.multi_callback_gauge(
            "dead", "never worked", ("k",), lambda: (_ for _ in ()).throw(OSError())
        )
        text = registry.render()
        assert "# TYPE dead gauge" in text
        assert "dead{" not in text

    def test_healthy_metrics_unaffected_by_poisoned_neighbor(self):
        registry = MetricsRegistry()
        counter = registry.counter("good_total", "fine")
        registry.callback_gauge("bad", "poisoned", lambda: 1 / 0)
        counter.inc(3)
        text = registry.render()
        assert "good_total 3" in text

    def test_registry_render_survives_metric_render_blowup(self):
        registry = MetricsRegistry()
        counter = registry.counter("survivor_total", "fine")
        counter.inc()
        broken = registry.gauge("hostile", "render itself raises")
        broken.render = lambda: (_ for _ in ()).throw(RuntimeError())  # type: ignore[method-assign]
        text = registry.render()
        assert "survivor_total 1" in text
        assert "hostile" not in text


class TestMetricsEndpointSafety:
    """The regression the satellite names: /metrics never 500s."""

    def _core(self) -> RequestCore:
        return RequestCore(SnapshotRegistry(make_store()))

    def test_scrape_with_poisoned_gauge_is_200(self):
        core = self._core()
        core.metrics.callback_gauge("poisoned", "raises", lambda: 1 / 0)
        response = core.handle(Request(method="GET", target="/metrics"))
        assert response.status == 200
        text = response.encoded().decode()
        assert "psl_serve_requests_total" in text
        assert "\npoisoned " not in text

    def test_scrape_with_stale_gauge_serves_stale_sample(self):
        core = self._core()
        state = {"broken": False}

        def sample() -> float:
            if state["broken"]:
                raise RuntimeError()
            return 42.0

        core.metrics.callback_gauge("flaky", "breaks mid-flight", sample)
        first = core.handle(Request(method="GET", target="/metrics"))
        assert "flaky 42" in first.encoded().decode()
        state["broken"] = True
        second = core.handle(Request(method="GET", target="/metrics"))
        assert second.status == 200
        assert "flaky 42" in second.encoded().decode()



# -- pins: bucket placement, label checks, the rendered exposition -----------


class TestHistogramBuckets:
    def _render(self, *values: float) -> list[str]:
        histogram = MetricsRegistry().histogram("h", "help", buckets=(0.1, 0.5, 1.0))
        for value in values:
            histogram.observe(value)
        return histogram.render()[2:]

    def test_value_on_a_bound_lands_in_that_bucket(self):
        assert self._render(0.5) == [
            'h_bucket{le="0.1"} 0', 'h_bucket{le="0.5"} 1', 'h_bucket{le="1"} 1',
            'h_bucket{le="+Inf"} 1', "h_sum 0.5", "h_count 1",
        ]

    def test_value_between_bounds_lands_in_the_next_bound(self):
        assert self._render(0.3) == [
            'h_bucket{le="0.1"} 0', 'h_bucket{le="0.5"} 1', 'h_bucket{le="1"} 1',
            'h_bucket{le="+Inf"} 1', "h_sum 0.3", "h_count 1",
        ]

    def test_value_above_the_top_bound_counts_only_in_inf_count_and_sum(self):
        assert self._render(2.0, 0.1) == [
            'h_bucket{le="0.1"} 1', 'h_bucket{le="0.5"} 1', 'h_bucket{le="1"} 1',
            'h_bucket{le="+Inf"} 2', "h_sum 2.1", "h_count 2",
        ]

    def test_labeled_series_render_sorted_with_le_last(self):
        histogram = MetricsRegistry().histogram("h", "help", ("endpoint",), buckets=(1.0,))
        histogram.observe(2.0, endpoint="/site")
        histogram.observe(0.0, endpoint="/batch")
        assert histogram.render()[2:] == [
            'h_bucket{endpoint="/batch",le="1"} 1', 'h_bucket{endpoint="/batch",le="+Inf"} 1',
            'h_sum{endpoint="/batch"} 0', 'h_count{endpoint="/batch"} 1',
            'h_bucket{endpoint="/site",le="1"} 0', 'h_bucket{endpoint="/site",le="+Inf"} 1',
            'h_sum{endpoint="/site"} 2', 'h_count{endpoint="/site"} 1',
        ]
        assert histogram.count(endpoint="/site") == 1
        assert histogram.sum(endpoint="/batch") == 0.0


class TestNonFiniteValues:
    """NaN and infinities render as the exposition format spells them,
    instead of raising in the formatter and dropping the metric."""

    def test_nan_observation_keeps_the_histogram_with_a_nan_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(1.0,))
        histogram.observe(0.1)
        histogram.observe(float("nan"))
        assert histogram.render()[2:] == [
            'h_bucket{le="1"} 1', 'h_bucket{le="+Inf"} 2', "h_sum NaN", "h_count 2",
        ]
        assert "h_sum NaN" in registry.render()

    def test_positive_infinity_gauge_renders_plus_inf(self):
        registry = MetricsRegistry()
        registry.gauge("g", "help").set(float("inf"))
        assert "g +Inf" in registry.render().splitlines()

    def test_negative_infinity_gauge_renders_minus_inf(self):
        registry = MetricsRegistry()
        registry.gauge("g", "help", ("side",)).set(float("-inf"), side="left")
        assert 'g{side="left"} -Inf' in registry.render().splitlines()

    def test_nan_gauge_renders_nan(self):
        registry = MetricsRegistry()
        registry.gauge("g", "help").set(float("nan"))
        assert "g NaN" in registry.render().splitlines()

    def test_infinite_histogram_sum_renders_plus_inf(self):
        histogram = MetricsRegistry().histogram("h", "help", buckets=(1.0,))
        histogram.observe(float("inf"))
        assert histogram.render()[-2:] == ["h_sum +Inf", "h_count 1"]


BAD_LABELS = [
    pytest.param({}, id="missing"),
    pytest.param({"endpoint": "/site"}, id="one-missing"),
    pytest.param({"endpoint": "/site", "status": "200", "extra": "x"}, id="extra"),
    pytest.param({"endpoint": "/site", "code": "200"}, id="wrong-name"),
]


class TestLabelChecks:
    @pytest.mark.parametrize("labels", BAD_LABELS)
    def test_every_instrument_method_refuses_bad_label_names(self, labels):
        registry = MetricsRegistry()
        names = ("endpoint", "status")
        counter = registry.counter("c_total", "c", names)
        gauge = registry.gauge("g", "g", names)
        histogram = registry.histogram("h", "h", names)
        calls = [
            lambda: counter.inc(**labels), lambda: counter.value(**labels),
            lambda: gauge.set(1.0, **labels), lambda: gauge.inc(**labels),
            lambda: gauge.dec(**labels), lambda: gauge.value(**labels),
            lambda: histogram.observe(0.1, **labels), lambda: histogram.count(**labels),
            lambda: histogram.sum(**labels),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()
        assert counter.render()[2:] == gauge.render()[2:] == histogram.render()[2:] == []

    def test_unlabeled_instruments_refuse_any_label(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c")
        histogram = registry.histogram("h", "h")
        with pytest.raises(ValueError):
            counter.inc(endpoint="/site")
        with pytest.raises(ValueError):
            histogram.observe(0.1, endpoint="/site")
        counter.inc()
        assert counter.value() == 1.0 and counter.render()[2:] == ["c_total 1"]

    def test_label_values_are_rendered_as_strings(self):
        counter = MetricsRegistry().counter("c_total", "c", ("status",))
        counter.inc(status=200)  # type: ignore[arg-type]
        counter.inc(status="200")
        assert counter.value(status="200") == 2.0
        assert counter.render()[2:] == ['c_total{status="200"} 2']


#: Sample values that depend on the day or the interpreter, not the requests.
VOLATILE = re.compile(
    r"^(psl_serve_snapshot_age_days|psl_serve_resident_dict_bytes(?:_estimate)?) .*$",
    re.MULTILINE,
)

EXPOSITION = """\
# HELP psl_serve_epoch Fleet epoch this process has applied (equals generation when local).
# TYPE psl_serve_epoch gauge
psl_serve_epoch 0
# HELP psl_serve_hostname_lookups_total Individual hostname lookups performed (batch items count each).
# TYPE psl_serve_hostname_lookups_total counter
psl_serve_hostname_lookups_total 9
# HELP psl_serve_inflight_requests Requests currently being processed.
# TYPE psl_serve_inflight_requests gauge
psl_serve_inflight_requests 0
# HELP psl_serve_rejected_total Requests shed by admission control (503, never processed).
# TYPE psl_serve_rejected_total counter
psl_serve_rejected_total 1
# HELP psl_serve_request_seconds Request wall time in seconds, by endpoint.
# TYPE psl_serve_request_seconds histogram
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.0005"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.001"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.0025"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.005"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.01"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.025"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.05"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.1"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.25"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="0.5"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="1"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="2.5"} 0
psl_serve_request_seconds_bucket{endpoint="/batch",le="+Inf"} 1
psl_serve_request_seconds_sum{endpoint="/batch"} 3
psl_serve_request_seconds_count{endpoint="/batch"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.0005"} 0
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.001"} 0
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.0025"} 0
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.005"} 0
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.01"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.025"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.05"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.1"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.25"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="0.5"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="1"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="2.5"} 1
psl_serve_request_seconds_bucket{endpoint="/classify",le="+Inf"} 1
psl_serve_request_seconds_sum{endpoint="/classify"} 0.01
psl_serve_request_seconds_count{endpoint="/classify"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.0005"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.001"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.0025"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.005"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.01"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.025"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.05"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.1"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.25"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="0.5"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="1"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="2.5"} 1
psl_serve_request_seconds_bucket{endpoint="/compare",le="+Inf"} 1
psl_serve_request_seconds_sum{endpoint="/compare"} 0.0001
psl_serve_request_seconds_count{endpoint="/compare"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.0005"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.001"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.0025"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.005"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.01"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.025"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.05"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.1"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.25"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="0.5"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="1"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="2.5"} 1
psl_serve_request_seconds_bucket{endpoint="/healthz",le="+Inf"} 1
psl_serve_request_seconds_sum{endpoint="/healthz"} 0
psl_serve_request_seconds_count{endpoint="/healthz"} 1
psl_serve_request_seconds_bucket{endpoint="/site",le="0.0005"} 1
psl_serve_request_seconds_bucket{endpoint="/site",le="0.001"} 2
psl_serve_request_seconds_bucket{endpoint="/site",le="0.0025"} 2
psl_serve_request_seconds_bucket{endpoint="/site",le="0.005"} 3
psl_serve_request_seconds_bucket{endpoint="/site",le="0.01"} 3
psl_serve_request_seconds_bucket{endpoint="/site",le="0.025"} 3
psl_serve_request_seconds_bucket{endpoint="/site",le="0.05"} 3
psl_serve_request_seconds_bucket{endpoint="/site",le="0.1"} 4
psl_serve_request_seconds_bucket{endpoint="/site",le="0.25"} 4
psl_serve_request_seconds_bucket{endpoint="/site",le="0.5"} 4
psl_serve_request_seconds_bucket{endpoint="/site",le="1"} 4
psl_serve_request_seconds_bucket{endpoint="/site",le="2.5"} 4
psl_serve_request_seconds_bucket{endpoint="/site",le="+Inf"} 4
psl_serve_request_seconds_sum{endpoint="/site"} 0.07440000000000001
psl_serve_request_seconds_count{endpoint="/site"} 4
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.0005"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.001"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.0025"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.005"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.01"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.025"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.05"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.1"} 0
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.25"} 1
psl_serve_request_seconds_bucket{endpoint="/versions",le="0.5"} 1
psl_serve_request_seconds_bucket{endpoint="/versions",le="1"} 1
psl_serve_request_seconds_bucket{endpoint="/versions",le="2.5"} 1
psl_serve_request_seconds_bucket{endpoint="/versions",le="+Inf"} 1
psl_serve_request_seconds_sum{endpoint="/versions"} 0.25
psl_serve_request_seconds_count{endpoint="/versions"} 1
# HELP psl_serve_requests_total Requests handled, by endpoint and status code.
# TYPE psl_serve_requests_total counter
psl_serve_requests_total{endpoint="/batch",status="200"} 1
psl_serve_requests_total{endpoint="/classify",status="200"} 1
psl_serve_requests_total{endpoint="/compare",status="200"} 1
psl_serve_requests_total{endpoint="/healthz",status="200"} 1
psl_serve_requests_total{endpoint="/site",status="200"} 2
psl_serve_requests_total{endpoint="/site",status="400"} 1
psl_serve_requests_total{endpoint="/site",status="404"} 1
psl_serve_requests_total{endpoint="/site",status="405"} 1
psl_serve_requests_total{endpoint="/site",status="503"} 1
psl_serve_requests_total{endpoint="/versions",status="200"} 1
psl_serve_requests_total{endpoint="<unknown>",status="404"} 1
# HELP psl_serve_resident_dict_bytes Measured heap bytes of resident dict-trie snapshots.
# TYPE psl_serve_resident_dict_bytes gauge
psl_serve_resident_dict_bytes <sampled>
# HELP psl_serve_resident_dict_bytes_estimate What every resident version would cost as a dict trie (the packed-vs-dict baseline).
# TYPE psl_serve_resident_dict_bytes_estimate gauge
psl_serve_resident_dict_bytes_estimate <sampled>
# HELP psl_serve_resident_packed_bytes Bytes of packed snapshot buffer resident (shared sections counted once).
# TYPE psl_serve_resident_packed_bytes gauge
psl_serve_resident_packed_bytes 0
# HELP psl_serve_resident_snapshots Snapshots currently materialized (active + compare residents).
# TYPE psl_serve_resident_snapshots gauge
psl_serve_resident_snapshots 2
# HELP psl_serve_snapshot_age_days Age of the active snapshot's list version in days (staleness).
# TYPE psl_serve_snapshot_age_days gauge
psl_serve_snapshot_age_days <sampled>
# HELP psl_serve_snapshot_index History index of the active snapshot.
# TYPE psl_serve_snapshot_index gauge
psl_serve_snapshot_index 2
# HELP psl_serve_snapshot_packed_mmap_shared Per resident version: 1 when served from an OS-shared packed mmap, 0 otherwise.
# TYPE psl_serve_snapshot_packed_mmap_shared gauge
psl_serve_snapshot_packed_mmap_shared{version="0"} 0
psl_serve_snapshot_packed_mmap_shared{version="2"} 0
# HELP psl_serve_snapshot_rules Rule count of the active snapshot.
# TYPE psl_serve_snapshot_rules gauge
psl_serve_snapshot_rules 10
# HELP psl_serve_snapshot_swaps_total Completed hot-swaps since start.
# TYPE psl_serve_snapshot_swaps_total gauge
psl_serve_snapshot_swaps_total 0
"""


class TestExpositionPin:
    def test_fixed_request_sequence_renders_a_fixed_exposition(self, monkeypatch):
        """Request instruments plus every gauge, byte for byte.

        Each request that reaches dispatch reads the clock twice; the
        fake clock hands out ``0`` then a chosen latency, so the
        histogram lands on a bound, between bounds and above the top.
        """
        core = RequestCore(SnapshotRegistry(make_store()), max_inflight=2)
        latencies = iter([0.0005, 0.003, 0.0009, 3.0, 0.01, 0.0001, 0.25, 0.07, 0.0, 0.0])
        ticks = iter(value for latency in latencies for value in (0.0, latency))
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))

        def get(target: str) -> int:
            return core.handle(Request("GET", target)).status

        def post(target: str, body: bytes) -> int:
            return core.handle(Request("POST", target, len(body), lambda n: body[:n])).status

        assert get("/site?host=www.example.co.uk") == 200
        assert get("/site") == 400
        assert get("/site?host=a.com&version=99") == 404
        assert post("/batch", b'{"hostnames": ["a.com", "bad..name", "b.github.io"]}') == 200
        assert get("/classify?page=a.example.com&request=t.tracker.net") == 200
        assert get("/compare?host=www.example.co.uk&old=0") == 200
        assert get("/versions?limit=1") == 200
        assert post("/site?host=a.com", b"") == 405
        assert get("/nope") == 404
        assert get("/site/?host=x.github.io") == 200
        assert core.gate.acquire(blocking=False) and core.gate.acquire(blocking=False)
        try:
            assert get("/site?host=a.com") == 503
            assert get("/healthz") == 200
        finally:
            core.gate.release()
            core.gate.release()
        rendered = core.handle(Request("GET", "/metrics"))
        assert rendered.content_type == "text/plain; version=0.0.4"
        text = VOLATILE.sub(r"\1 <sampled>", rendered.encoded().decode())
        assert text == EXPOSITION


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
