"""Exception-safety regression tests for the metrics exposition.

The satellite contract: a gauge callback raising during a scrape must
yield a stale or omitted sample — never a 500 on ``/metrics``.  The
metrics endpoint is the one surface operators need *while* something
is broken, so 'something is broken' must not take it down.
"""

from __future__ import annotations

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


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
