"""The resilient task executor: retries, quarantine, pool recovery.

``ProcessPoolExecutor`` alone is brittle at sweep scale: one worker
crash raises ``BrokenProcessPool`` and discards every completed
partial.  :class:`ResilientExecutor` wraps the pool with the failure
handling a long longitudinal job needs, while keeping the invariant
the classify engine is built on — **a fault-free run returns exactly what
a plain serial map over the tasks would**, in task order.

Per task, the state machine is::

    pending -> running -> done
                  |          ^
                  | failure / timeout / worker death (attempt += 1)
                  v          |
              retrying ------+--> exhausted -> serial in-process attempt
                                                   |            |
                                                   v            v
                                                 done      quarantined

* **bounded retries, deterministic backoff** — a failed task re-enters
  the queue until :attr:`RetryPolicy.max_attempts`, sleeping
  ``backoff_base * 2**(attempt - 2)`` (capped) between attempts; no
  jitter, so runs are reproducible;
* **timeouts** — with :attr:`RetryPolicy.task_timeout` set, an overdue
  task gets its workers killed and the pool rebuilt; tasks that were
  merely co-resident are resubmitted without a penalty attempt;
* **pool recovery** — ``BrokenProcessPool`` tears down the executor,
  not the sweep: the pool is rebuilt and only unfinished tasks are
  resubmitted (completed results are never recomputed);
* **quarantine** — a task that exhausts its pool attempts gets one
  final *serial, in-process* attempt (rescuing innocents that merely
  shared a pool with a poisonous neighbour); if that also fails it is
  excluded, recorded as a :class:`TaskFailure`, and its slot in the
  result list is ``None`` instead of sinking the whole run;
* **checkpointing** — with a :class:`~repro.runtime.checkpoint
  .CheckpointStore` attached, every completed result is spilled as it
  lands and already-spilled tasks are restored instead of re-executed.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from repro.runtime.checkpoint import MISSING, CheckpointStore
from repro.runtime.faults import CorruptResult, FaultPlan, invoke_with_faults

_Task = TypeVar("_Task")

#: How often the pool loop wakes to look for overdue tasks.
_POLL_SECONDS = 0.05


class CorruptResultError(RuntimeError):
    """A task returned a result its validator rejected."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How hard to fight for each task before quarantining it."""

    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive when set")

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before running ``attempt`` (1-based)."""
        if attempt <= 1 or self.backoff_base == 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 2)))


@dataclass(frozen=True, slots=True)
class TaskFailure:
    """One quarantined task: its identity, effort spent, last error."""

    task_id: str
    attempts: int
    error: str


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    """What one :meth:`ResilientExecutor.run` call went through."""

    total: int
    executed: int
    resumed: int
    retried: tuple[str, ...]
    quarantined: tuple[TaskFailure, ...]
    pool_rebuilds: int

    @property
    def degraded(self) -> bool:
        """True when any task was excluded from the results."""
        return bool(self.quarantined)

    @property
    def quarantined_ids(self) -> tuple[str, ...]:
        return tuple(failure.task_id for failure in self.quarantined)


class _RunState:
    """Mutable bookkeeping for one ``run`` call."""

    def __init__(self, count: int) -> None:
        self.results: list[Any] = [None] * count
        self.done = [False] * count
        self.retried: list[str] = []
        self.quarantined: list[TaskFailure] = []
        self.resumed = 0
        self.pool_rebuilds = 0


class ResilientExecutor:
    """Runs independent tasks to completion despite worker failures.

    ``workers=1`` executes everything in-process (retries and
    quarantine still apply); ``workers>1`` fans out over a process pool
    that is rebuilt, not surrendered, when workers die.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self._workers = workers
        self._policy = policy if policy is not None else RetryPolicy()
        self._checkpoint = checkpoint
        self._plan = fault_plan

    def run(
        self,
        function: Callable[[_Task], Any],
        tasks: Sequence[_Task],
        *,
        task_ids: Sequence[str] | None = None,
        validate: Callable[[Any], bool] | None = None,
    ) -> tuple[list[Any], ExecutionReport]:
        """Execute every task; returns index-aligned results + report.

        Quarantined tasks leave ``None`` at their position.  ``validate``
        (parent-side, never pickled) rejects corrupt results, turning
        them into ordinary retryable failures.  ``tasks`` is read only
        at the positions that execute, after the checkpoint restore, so
        a task that resumes is never made.
        """
        ids = list(task_ids) if task_ids is not None else [str(i) for i in range(len(tasks))]
        if len(ids) != len(tasks):
            raise ValueError("task_ids must align with tasks")
        if len(set(ids)) != len(ids):
            raise ValueError("task_ids must be unique")

        state = _RunState(len(tasks))
        if self._checkpoint is not None:
            for position, task_id in enumerate(ids):
                payload = self._checkpoint.load(task_id)
                if payload is MISSING or not self._acceptable(payload, validate):
                    continue
                state.results[position] = payload
                state.done[position] = True
                state.resumed += 1

        pending = [position for position in range(len(tasks)) if not state.done[position]]
        if self._workers == 1 or len(pending) <= 1:
            for position in pending:
                self._run_serially(function, tasks, ids, position, validate, state)
        elif pending:
            self._run_on_pool(function, tasks, ids, pending, validate, state)

        report = ExecutionReport(
            total=len(tasks),
            executed=len(pending),
            resumed=state.resumed,
            retried=tuple(state.retried),
            quarantined=tuple(state.quarantined),
            pool_rebuilds=state.pool_rebuilds,
        )
        return state.results, report

    # -- shared plumbing ------------------------------------------------------

    def _acceptable(self, value: Any, validate: Callable[[Any], bool] | None) -> bool:
        if isinstance(value, CorruptResult):
            return False
        if validate is not None:
            try:
                return bool(validate(value))
            except Exception:
                return False
        return True

    def _check(self, value: Any, validate: Callable[[Any], bool] | None) -> Any:
        if not self._acceptable(value, validate):
            raise CorruptResultError(f"task returned an invalid result: {value!r}")
        return value

    def _commit(self, position: int, task_id: str, value: Any, state: _RunState) -> None:
        state.results[position] = value
        state.done[position] = True
        if self._checkpoint is not None:
            self._checkpoint.save(task_id, value)

    def _quarantine(
        self, position: int, task_id: str, attempts: int, error: str, state: _RunState
    ) -> None:
        state.quarantined.append(TaskFailure(task_id=task_id, attempts=attempts, error=error))
        state.results[position] = None
        state.done[position] = True

    # -- the serial path ------------------------------------------------------

    def _run_serially(
        self,
        function: Callable[[_Task], Any],
        tasks: Sequence[_Task],
        ids: list[str],
        position: int,
        validate: Callable[[Any], bool] | None,
        state: _RunState,
    ) -> None:
        """All attempts in-process — the ``workers=1`` fallback path."""
        task_id = ids[position]
        last_error = "unknown"
        for attempt in range(1, self._policy.max_attempts + 1):
            delay = self._policy.backoff(attempt)
            if delay:
                time.sleep(delay)
            try:
                value = self._check(
                    invoke_with_faults(function, tasks[position], task_id, attempt, self._plan, True),
                    validate,
                )
            except Exception as exc:
                last_error = repr(exc)
                continue
            if attempt > 1:
                state.retried.append(task_id)
            self._commit(position, task_id, value, state)
            return
        self._quarantine(position, task_id, self._policy.max_attempts, last_error, state)

    def _final_serial_attempt(
        self,
        function: Callable[[_Task], Any],
        tasks: Sequence[_Task],
        ids: list[str],
        position: int,
        attempts_so_far: int,
        last_error: str,
        validate: Callable[[Any], bool] | None,
        state: _RunState,
    ) -> None:
        """The quarantine gate: one in-process attempt after the pool
        gave up, so a task is only excluded when it fails *here* too."""
        task_id = ids[position]
        attempt = attempts_so_far + 1
        try:
            value = self._check(
                invoke_with_faults(function, tasks[position], task_id, attempt, self._plan, True),
                validate,
            )
        except Exception as exc:
            self._quarantine(position, task_id, attempt, repr(exc), state)
            return
        state.retried.append(task_id)
        self._commit(position, task_id, value, state)

    # -- the pool path --------------------------------------------------------

    def _run_on_pool(
        self,
        function: Callable[[_Task], Any],
        tasks: Sequence[_Task],
        ids: list[str],
        pending: list[int],
        validate: Callable[[Any], bool] | None,
        state: _RunState,
    ) -> None:
        queue: deque[tuple[int, int, str]] = deque(
            (position, 1, "unknown") for position in pending
        )
        inflight: dict[Future, tuple[int, int, float]] = {}
        pool: ProcessPoolExecutor | None = None
        try:
            while queue or inflight:
                # Exhausted tasks leave the pool for the quarantine gate.
                requeue: deque[tuple[int, int, str]] = deque()
                while queue:
                    position, attempt, last_error = queue.popleft()
                    if attempt > self._policy.max_attempts:
                        self._final_serial_attempt(
                            function, tasks, ids, position, attempt - 1, last_error, validate, state
                        )
                    else:
                        requeue.append((position, attempt, last_error))
                queue = requeue

                while queue:
                    position, attempt, last_error = queue.popleft()
                    delay = self._policy.backoff(attempt)
                    if delay:
                        time.sleep(delay)
                    if pool is None:
                        pool = ProcessPoolExecutor(
                            max_workers=min(self._workers, 1 + len(queue) + len(inflight))
                        )
                    try:
                        future = pool.submit(
                            invoke_with_faults,
                            function,
                            tasks[position],
                            ids[position],
                            attempt,
                            self._plan,
                            False,
                        )
                    except (BrokenProcessPool, RuntimeError) as exc:
                        # The pool died between rounds; rebuild and retry
                        # this submission without charging the task.
                        state.pool_rebuilds += 1
                        pool = self._discard_pool(pool)
                        queue.appendleft((position, attempt, repr(exc)))
                        continue
                    inflight[future] = (position, attempt, time.monotonic())

                if not inflight:
                    continue
                poll = _POLL_SECONDS if self._policy.task_timeout is not None else None
                finished, _ = wait(set(inflight), timeout=poll, return_when=FIRST_COMPLETED)

                pool_broken = False
                for future in finished:
                    position, attempt, _started = inflight.pop(future)
                    try:
                        value = self._check(future.result(), validate)
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        queue.append((position, attempt + 1, repr(exc)))
                        continue
                    except Exception as exc:
                        queue.append((position, attempt + 1, repr(exc)))
                        continue
                    if attempt > 1:
                        state.retried.append(ids[position])
                    self._commit(position, ids[position], value, state)

                if pool_broken:
                    # Every other in-flight future is doomed with the
                    # same pool; resubmit them without a penalty attempt.
                    state.pool_rebuilds += 1
                    pool = self._discard_pool(pool)
                    for position, attempt, _started in inflight.values():
                        queue.append((position, attempt, "broken process pool"))
                    inflight.clear()
                elif self._policy.task_timeout is not None and inflight:
                    now = time.monotonic()
                    overdue = {
                        future
                        for future, (_, _, started) in inflight.items()
                        if now - started > self._policy.task_timeout
                    }
                    if overdue:
                        # A hung worker can only be reclaimed by killing
                        # the pool; overdue tasks are charged an attempt,
                        # co-resident ones are not.
                        state.pool_rebuilds += 1
                        pool = self._kill_pool(pool)
                        for future, (position, attempt, _started) in inflight.items():
                            if future in overdue:
                                queue.append(
                                    (position, attempt + 1, "task timeout: worker killed")
                                )
                            else:
                                queue.append((position, attempt, "pool killed for timeout"))
                        inflight.clear()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _discard_pool(pool: ProcessPoolExecutor | None) -> None:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor | None) -> None:
        """Terminate worker processes outright (for hangs), then discard."""
        if pool is None:
            return None
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        return None
