"""The request-serving subsystem: concurrent PSL queries over HTTP.

Everything before this package answers questions in batch — sweeps,
figures, tables.  :mod:`repro.serve` is the long-lived query surface a
production consumer (browser fleet, mail infrastructure, crawler)
would actually hit: an always-on service that answers site / classify
/ compare questions from immutable versioned snapshots, hot-swaps list
versions atomically under live traffic, and reports its own health as
Prometheus metrics.

Layering::

    SnapshotRegistry  (snapshots.py)  versioned immutable snapshots,
         |                            atomic copy-on-write hot-swap
    QueryEngine       (engine.py)     uncached hostname -> psl.lookup,
         |                            single/batch/compare APIs
    RequestCore       (core.py)       transport-agnostic routing,
         |                            admission, error mapping, metrics
    PslServer         (http.py)       thread-per-connection HTTP/1.1
         |                            keep-alive loop: bounded parse, one
         |                            write per response, body framing,
         |                            socket timeouts, graceful drain
    FleetSupervisor   (fleet.py)      pre-fork multi-worker front-end:
         |                            SO_REUSEPORT (or parent-fd) port
         |                            sharing, crash->respawn, epoch-bus
         |                            coordinated fleet-wide hot-swap
    psl-serve         (cli.py)        console entry point + smoke tests
                                      (--workers N selects the fleet)

:mod:`repro.serve.loadgen` drives Zipf-shaped HTTP load at either
shape of server; ``make bench-serve`` gates latency and fleet scaling
on it.

A :class:`~repro.update.watcher.Watcher` (see :mod:`repro.update`) can
be attached to a :class:`PslServer` to keep it continuously current
against upstream, with staleness SLOs on ``/healthz``; in a fleet the
watcher runs in the supervisor only and publishes ingests on the
epoch bus.

See ``docs/architecture.md`` (Serving layer) and
``examples/serve_queries.py`` for a driving tour.
"""

from repro.serve.core import (
    LocalEpochs,
    Request,
    RequestCore,
    Response,
    error_body,
)
from repro.serve.engine import (
    BatchAnswer,
    BatchItemError,
    ClassifyAnswer,
    CompareAnswer,
    QueryEngine,
    SiteAnswer,
)
from repro.serve.http import (
    DEFAULT_DRAIN_DEADLINE,
    DEFAULT_REQUEST_TIMEOUT,
    PslServer,
    serve_forever,
)
from repro.serve.metrics import (
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MultiCallbackGauge,
)
from repro.serve.snapshots import (
    MemoryAccounting,
    PslSnapshot,
    SnapshotRegistry,
    UnknownVersionError,
)

__all__ = [
    "BatchAnswer",
    "BatchItemError",
    "CallbackGauge",
    "ClassifyAnswer",
    "CompareAnswer",
    "Counter",
    "DEFAULT_DRAIN_DEADLINE",
    "DEFAULT_REQUEST_TIMEOUT",
    "Gauge",
    "Histogram",
    "LocalEpochs",
    "MemoryAccounting",
    "MetricsRegistry",
    "MultiCallbackGauge",
    "PslServer",
    "Request",
    "RequestCore",
    "Response",
    "error_body",
    "PslSnapshot",
    "QueryEngine",
    "SiteAnswer",
    "SnapshotRegistry",
    "UnknownVersionError",
    "serve_forever",
]
