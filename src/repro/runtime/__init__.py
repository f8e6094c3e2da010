"""The resilient task-execution layer under the classify engine.

Long longitudinal jobs (the paper's 498M-request × 1,142-version
replay) live or die on surviving partial failure; this package is the
fan-out runtime that makes a crashed worker a retry, a poisoned chunk
a quarantine entry, and a killed run a resume — never a lost sweep.

Public API:

* :class:`~repro.runtime.executor.ResilientExecutor` — run independent
  tasks with bounded retries, per-task timeouts, ``BrokenProcessPool``
  recovery, and quarantine;
* :class:`~repro.runtime.executor.RetryPolicy`,
  :class:`~repro.runtime.executor.ExecutionReport`,
  :class:`~repro.runtime.executor.TaskFailure` — its knobs and outcome;
* :class:`~repro.runtime.checkpoint.CheckpointStore` — chunk-granular
  result spills for checkpoint/resume;
* :class:`~repro.runtime.checkpoint.AtomicFile` /
  :func:`~repro.runtime.checkpoint.atomic_write_bytes` — the one
  crash-safe write primitive every durable format goes through, and
  :func:`~repro.runtime.checkpoint.remove_temp_files`, which reclaims
  the temp files of killed writes in a directory one run owns;
* :func:`~repro.runtime.collector.collector_paused` — the cyclic collector paused for a block;
* :mod:`repro.runtime.faults` — the deterministic fault-injection
  harness (:class:`~repro.runtime.faults.FaultPlan`) the tests drive
  every failure mode with.
"""

from repro.runtime.checkpoint import (
    MISSING,
    AtomicFile,
    CheckpointStore,
    atomic_write_bytes,
    remove_temp_files,
)
from repro.runtime.collector import collector_paused
from repro.runtime.executor import (
    CorruptResultError,
    ExecutionReport,
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
)
from repro.runtime.faults import (
    ALWAYS,
    CorruptResult,
    Fault,
    FaultInjected,
    FaultKind,
    FaultPlan,
    invoke_with_faults,
)

__all__ = [
    "ALWAYS",
    "MISSING",
    "AtomicFile",
    "CheckpointStore",
    "CorruptResult",
    "CorruptResultError",
    "ExecutionReport",
    "Fault",
    "FaultInjected",
    "FaultKind",
    "FaultPlan",
    "ResilientExecutor",
    "RetryPolicy",
    "TaskFailure",
    "atomic_write_bytes",
    "collector_paused",
    "invoke_with_faults",
    "remove_temp_files",
]
