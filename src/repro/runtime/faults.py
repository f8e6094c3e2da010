"""Deterministic fault injection for the task runtime.

Every failure mode the resilient executor claims to survive — worker
crashes, abrupt worker death, hangs, corrupt partials — is driven by
tests through a :class:`FaultPlan`: a picklable description of which
task ids misbehave, in which way, on which attempts.  The plan travels
to pool workers inside the submitted call, so faults fire *inside* the
worker process exactly where a real failure would, and because firing
is keyed on ``(task_id, attempt)`` a plan replays identically on every
run — no randomness, no timing races.

The executor routes every invocation (pool or in-process) through
:func:`invoke_with_faults`; with ``plan=None`` the wrapper is a plain
call, which is what keeps the fault-free path bit-identical to running
the task function directly.

The same plan type drives the live-update loop's synthetic upstream
(:class:`repro.update.upstream.SyntheticUpstream`), keyed by upstream
operation instead of task id and with ``kind`` drawn from
:class:`~repro.update.upstream.UpstreamFaultKind`: the failure modes
differ, the schedule does not.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, TypeVar

_Task = TypeVar("_Task")

#: ``Fault.attempts`` value meaning "on every attempt, forever" — the
#: poisoned-task case that must end in quarantine, not a retry loop.
ALWAYS = 1 << 30


class FaultInjected(RuntimeError):
    """Raised by a crash fault (and by abrupt-death faults in-process)."""


class FaultKind(enum.Enum):
    """The injectable failure modes.

    * ``CRASH`` — raise :class:`FaultInjected` (an ordinary task error);
    * ``WORKER_EXIT`` — ``os._exit`` the worker process, which the
      parent observes as ``BrokenProcessPool``; in-process it degrades
      to a raise, since killing the parent would end the test run;
    * ``HANG`` — sleep ``hang_seconds`` before doing the real work,
      tripping per-task timeouts (finite, so an escaped hang cannot
      wedge interpreter shutdown);
    * ``CORRUPT`` — return a :class:`CorruptResult` instead of the real
      partial, exercising result validation.
    """

    CRASH = "crash"
    WORKER_EXIT = "worker-exit"
    HANG = "hang"
    CORRUPT = "corrupt"


@dataclass(frozen=True, slots=True)
class Fault:
    """One task's misbehaviour: ``kind`` on attempts ``1..attempts``.

    ``kind`` is a :class:`FaultKind` for executor tasks, or an
    :class:`~repro.update.upstream.UpstreamFaultKind` for upstream
    operations.
    """

    kind: enum.Enum
    attempts: int = 1
    hang_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a fault must fire on at least one attempt")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")

    def fires_on(self, attempt: int) -> bool:
        return attempt <= self.attempts


@dataclass(frozen=True, slots=True)
class CorruptResult:
    """What a corrupt fault returns in place of a real partial.

    Deliberately the wrong type for every consumer; the executor also
    rejects it unconditionally, so corruption never reaches a merge
    even when the caller supplied no validator.
    """

    task_id: str
    attempt: int


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A deterministic schedule of faults, keyed by task id.

    Plans are frozen and contain only plain values, so they pickle into
    pool workers unchanged, and storing one next to a journal is all it
    takes to replay a run bit-for-bit.
    """

    faults: Mapping[str, Fault] = field(default_factory=dict)

    def fault_for(self, task_id: str, attempt: int) -> Fault | None:
        fault = self.faults.get(task_id)
        if fault is not None and fault.fires_on(attempt):
            return fault
        return None

    def to_json(self) -> dict:
        """JSON shape for storing a plan beside its journal."""
        return {
            key: {
                "kind": fault.kind.value,
                "attempts": fault.attempts,
                "hang_seconds": fault.hang_seconds,
            }
            for key, fault in sorted(self.faults.items())
        }

    @classmethod
    def from_json(cls, payload: Mapping, kinds: type[enum.Enum]) -> "FaultPlan":
        """Inverse of :meth:`to_json`.

        ``kinds`` is the enum the stored ``kind`` values belong to:
        :class:`FaultKind` or ``UpstreamFaultKind``.
        """
        return cls(
            faults={
                key: Fault(
                    kind=kinds(spec["kind"]),
                    attempts=int(spec["attempts"]),
                    hang_seconds=float(spec["hang_seconds"]),
                )
                for key, spec in payload.items()
            }
        )


def invoke_with_faults(
    function: Callable[[_Task], Any],
    task: _Task,
    task_id: str,
    attempt: int,
    plan: FaultPlan | None,
    in_process: bool,
) -> Any:
    """Run one task invocation, applying any scheduled fault first.

    This is the single choke point both execution paths share: pool
    workers run it via ``pool.submit`` and the serial/quarantine path
    calls it inline with ``in_process=True``.
    """
    fault = plan.fault_for(task_id, attempt) if plan is not None else None
    if fault is not None:
        if fault.kind is FaultKind.CRASH:
            raise FaultInjected(f"injected crash: task {task_id!r} attempt {attempt}")
        if fault.kind is FaultKind.WORKER_EXIT:
            if in_process:
                raise FaultInjected(
                    f"injected worker exit (in-process): task {task_id!r} attempt {attempt}"
                )
            os._exit(86)
        if fault.kind is FaultKind.CORRUPT:
            return CorruptResult(task_id=task_id, attempt=attempt)
        time.sleep(fault.hang_seconds)  # HANG, then fall through to real work
    return function(task)
