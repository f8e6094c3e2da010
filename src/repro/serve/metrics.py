"""Prometheus-style metrics, stdlib only.

A deliberately small instrument set — :class:`Counter`,
:class:`Gauge`, :class:`Histogram`, plus callback gauges sampled at
scrape time — rendering the Prometheus text exposition format
(version 0.0.4) that any scraper ingests.  No client library exists in
this environment, and the serving layer needs only the four metric
shapes below, so this is a faithful subset, not a reimplementation:
labeled samples, cumulative histogram buckets with ``+Inf``, and
``# HELP`` / ``# TYPE`` headers.

Each instrument takes its own mutex.  A ``GET /site`` makes three
updates (a two-label counter, a one-label histogram and an unlabeled
counter): 4.2–4.9 µs per request on a 2-vCPU VM when each update
checked its label names with two sets and placed a histogram value by
scanning the buckets, 2.3–2.6 µs now that a label set seen before is
one ``itemgetter`` call and one dict hit (:meth:`_Metric._key`) and a
histogram places its value with one :func:`bisect.bisect_left` into a
single per-series list.  That is about a seventh of the request core's
~17 µs, so it is worth keeping cheap.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Mapping, Sequence

#: Default latency buckets (seconds): tuned for an in-memory lookup
#: service — sub-millisecond trie walks through pathological tail.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _format_value(value: float) -> str:
    """Integers render bare (``17``), floats with full precision, and
    non-finite values as the exposition format spells them (``NaN``,
    ``+Inf``, ``-Inf``) rather than raising and dropping the metric."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + body + "}"


class _Metric:
    """Shared naming/help plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values_of = itemgetter(*self.labelnames) if self.labelnames else lambda labels: ()
        #: Raw label values already seen -> their series key.
        self._keys: dict[object, tuple[str, ...]] = {}

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        """The series key of ``labels``: their values as strings, in label order.

        A label set seen before is one ``itemgetter`` call and one dict
        hit away; only a first sighting is checked name by name and
        converted.  Missing, extra or misnamed labels raise ValueError.
        """
        if len(labels) == len(self.labelnames):
            try:
                return self._keys[self._values_of(labels)]
            except (KeyError, TypeError):  # unseen, a name missing, or unhashable
                pass
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        try:
            self._keys[self._values_of(labels)] = key
        except TypeError:  # an unhashable label value: converted every time
            pass
        return key

    def _header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            labels = dict(zip(self.labelnames, key))
            lines.append(f"{self.name}{_format_labels(labels)} {_format_value(value)}")
        if not items and not self.labelnames:
            lines.append(f"{self.name} 0")
        return lines


class Gauge(_Metric):
    """A set-to-current-value gauge (optionally labeled)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            labels = dict(zip(self.labelnames, key))
            lines.append(f"{self.name}{_format_labels(labels)} {_format_value(value)}")
        if not items and not self.labelnames:
            lines.append(f"{self.name} 0")
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (the Prometheus layout).

    Per label set it tracks bucket counts, a running sum, and a total
    count, rendered as ``_bucket{le=...}``, ``_sum``, ``_count`` — the
    shape every latency dashboard expects.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        #: Per series: ``[sum, count per bucket..., count above the top]``.
        self._series: dict[tuple[str, ...], list] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        # The first bound >= value; NaN is >= no bound, so it counts
        # only above the top (in ``+Inf``), where bisect would not put it.
        slot = bisect_left(self.buckets, value) + 1 if value == value else len(self.buckets) + 1
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [0.0] + [0] * (len(self.buckets) + 1)
            series[0] += value
            series[slot] += 1

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return sum(series[1:]) if series else 0

    def sum(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series[0] if series else 0.0

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            snapshot = sorted((key, list(series)) for key, series in self._series.items())
        for key, series in snapshot:
            total_sum, counts, total = series[0], series[1:-1], sum(series[1:])
            labels = dict(zip(self.labelnames, key))
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                bucket_labels = dict(labels, le=_format_value(bound))
                lines.append(
                    f"{self.name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                )
            inf_labels = dict(labels, le="+Inf")
            lines.append(f"{self.name}_bucket{_format_labels(inf_labels)} {total}")
            lines.append(f"{self.name}_sum{_format_labels(labels)} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{_format_labels(labels)} {total}")
        return lines


class CallbackGauge(_Metric):
    """A gauge whose value is sampled from a callable at scrape time.

    The serving layer points these at live state — snapshot age, swap
    count, resident count — so ``/metrics`` always reflects *now*
    without every code path pushing updates.
    """

    kind = "gauge"

    def __init__(self, name: str, help_text: str, callback: Callable[[], float]) -> None:
        super().__init__(name, help_text, ())
        self._callback = callback
        self._last_good: float | None = None

    def value(self) -> float:
        return float(self._callback())

    def render(self) -> list[str]:
        """Sample the callback; on failure, serve the last good value.

        A raising callback must never break the scrape: the gauge
        degrades to its most recent successful sample (stale beats
        absent for dashboards mid-incident), or is omitted entirely if
        it has never succeeded.  The rest of the exposition is
        unaffected either way.
        """
        lines = self._header()
        try:
            value = self.value()
            with self._lock:
                self._last_good = value
        except Exception:
            with self._lock:
                value = self._last_good  # type: ignore[assignment]
            if value is None:
                return lines
        lines.append(f"{self.name} {_format_value(value)}")
        return lines


class MultiCallbackGauge(_Metric):
    """A labeled gauge sampled whole from one callable at scrape time.

    The callback returns ``{label_value_tuple_or_str: value}`` for a
    dynamic label population — e.g. one ``packed_mmap_shared`` sample
    per *resident* snapshot version, whatever those happen to be when
    the scrape lands.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        callback: Callable[[], Mapping],
    ) -> None:
        if not labelnames:
            raise ValueError("MultiCallbackGauge requires label names")
        super().__init__(name, help_text, labelnames)
        self._callback = callback
        self._last_good: dict[tuple[str, ...], float] | None = None

    def samples(self) -> dict[tuple[str, ...], float]:
        raw = self._callback()
        samples: dict[tuple[str, ...], float] = {}
        for key, value in raw.items():
            if isinstance(key, tuple):
                parts = tuple(str(part) for part in key)
            else:
                parts = (str(key),)
            if len(parts) != len(self.labelnames):
                raise ValueError(
                    f"{self.name}: sample key {key!r} does not fit labels {self.labelnames}"
                )
            samples[parts] = float(value)
        return samples

    def render(self) -> list[str]:
        """Sample the callback; on failure, serve the last good samples.

        Same contract as :meth:`CallbackGauge.render` — stale beats
        absent, absent beats a 500 — applied to the whole label family
        at once (the callback produces one coherent population, so the
        fallback does too).
        """
        lines = self._header()
        try:
            samples = self.samples()
            with self._lock:
                self._last_good = dict(samples)
        except Exception:
            with self._lock:
                samples = self._last_good  # type: ignore[assignment]
            if samples is None:
                return lines
        for key in sorted(samples):
            labels = dict(zip(self.labelnames, key))
            lines.append(
                f"{self.name}{_format_labels(labels)} {_format_value(samples[key])}"
            )
        return lines


class MetricsRegistry:
    """The set of instruments one server exposes at ``/metrics``."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help_text, labelnames, buckets=buckets)
        )

    def callback_gauge(
        self, name: str, help_text: str, callback: Callable[[], float]
    ) -> CallbackGauge:
        return self._register(CallbackGauge(name, help_text, callback))  # type: ignore[return-value]

    def multi_callback_gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        callback: Callable[[], Mapping],
    ) -> MultiCallbackGauge:
        return self._register(  # type: ignore[return-value]
            MultiCallbackGauge(name, help_text, labelnames, callback)
        )

    def state_gauge(
        self,
        name: str,
        help_text: str,
        states: Sequence[str],
        current: Callable[[], str],
    ) -> MultiCallbackGauge:
        """A one-hot gauge family over a closed state set.

        Renders one ``name{state="..."}`` sample per known state, value
        1 for the state ``current()`` reports and 0 for the rest — the
        conventional Prometheus shape for enum-valued health (alert on
        ``name{state="degraded"} == 1``, graph transitions over time).
        """
        closed = tuple(str(state) for state in states)

        def sample() -> dict[str, float]:
            active = str(current())
            return {state: 1.0 if state == active else 0.0 for state in closed}

        return self.multi_callback_gauge(name, help_text, ("state",), sample)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full text exposition (trailing newline included).

        Defense in depth around the scrape: the callback gauges already
        degrade to stale-or-omitted on their own, but any metric whose
        ``render`` itself blows up is skipped rather than taking
        ``/metrics`` — the one endpoint operators need *during* an
        incident — down with it.
        """
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            try:
                lines.extend(metric.render())
            except Exception:
                continue
        return "\n".join(lines) + "\n"
