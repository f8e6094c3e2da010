"""In-memory span tracing by wrapping the program's public callables.

The benchmark never edits the program to trace it: a :class:`Tracer`
replaces a module or class attribute (``"repro.sweep.engine:prepare_hosts"``,
``"repro.psl.packed:PackedTrie.iter_rules"``) with a timing wrapper.  A
target that no longer exists is recorded in :attr:`Tracer.absent`
instead of raising, so a refactor that renames a layer loses that
layer's metric visibly rather than breaking the run.

Three wrapper kinds:

* ``span`` — one record per call, with its parent and request id;
* ``aggregate`` — hot inner calls (a trie match per hostname) are
  folded into one record per (enclosing span, name) carrying a call
  count ``n`` and the summed busy time, so a batch of 256 hostnames
  costs two records, not 512;
* ``generator`` — the callable returns an iterator; the time spent
  producing items (not consuming them) is folded into an aggregate
  under whatever span consumes it.

Every record is a dict ``{id, name, parent, rid, start, end, n, busy,
pid}`` with ``perf_counter_ns`` times.  The self time of a record is
its busy time minus the busy time of its direct children
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns as _now
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Tracer", "load_records", "resolve", "self_after", "self_times"]


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name).

    Raises ``LookupError`` when the module, the owner or the attribute
    is gone.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *owners, attr = path.split(".")
    for name in owners:
        if not hasattr(owner, name):
            raise LookupError(target)
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise LookupError(target)
    return owner, attr


class _Bucket:
    """One aggregate record under construction."""

    __slots__ = ("id", "name", "parent", "rid", "n", "busy", "start", "end", "children")

    def __init__(self, id: int, name: str, parent: int | None, rid: int | None, start: int) -> None:
        self.id = id
        self.name = name
        self.parent = parent
        self.rid = rid
        self.n = 0
        self.busy = 0
        self.start = start
        self.end = start
        self.children: dict[str, _Bucket] = {}


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = ("id", "name", "parent", "rid", "start", "children", "bucket")

    def __init__(self, id: int, name: str, parent: int | None, rid: int | None, start: int,
                 bucket: _Bucket | None = None) -> None:
        self.id = id
        self.name = name
        self.parent = parent
        self.rid = rid if rid is not None else id
        self.start = start
        # Aggregates opened directly under this frame; an aggregate
        # frame shares (and nests into) its bucket's children instead.
        self.children = bucket.children if bucket is not None else {}
        self.bucket = bucket


class Tracer:
    """Spans, counters and observed values of one process."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.counts: Counter[str] = Counter()
        self.values: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots: dict[str, _Bucket] = {}  # aggregates with no open span
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []
        self._flushed = 0
        self.pid = os.getpid()

    # -- the span stack -------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        top = stack[-1] if stack else None
        frame = _Frame(next(self._ids), name, top.id if top else None, top.rid if top else None, _now())
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = _now()
        stack = self._stack()
        while stack:
            if stack.pop() is frame:
                break
        if frame.bucket is not None:
            bucket = frame.bucket
            bucket.n += 1
            bucket.busy += end - frame.start
            bucket.end = end
            return
        self.records.append(
            {"id": frame.id, "name": frame.name, "parent": frame.parent, "rid": frame.rid,
             "start": frame.start, "end": end, "n": 1, "busy": end - frame.start, "pid": self.pid}
        )
        self._emit(frame.children)

    def _emit(self, buckets: dict[str, _Bucket]) -> None:
        for bucket in buckets.values():
            self.records.append(
                {"id": bucket.id, "name": bucket.name, "parent": bucket.parent, "rid": bucket.rid,
                 "start": bucket.start, "end": bucket.end, "n": bucket.n, "busy": bucket.busy,
                 "pid": self.pid}
            )
            self._emit(bucket.children)
        buckets.clear()

    def _bucket(self, name: str, start: int) -> _Bucket:
        stack = self._stack()
        if stack:
            top = stack[-1]
            children, parent, rid = top.children, top.id, top.rid
        else:
            children, parent, rid = self._roots, None, None
        bucket = children.get(name)
        if bucket is None:
            with self._lock:
                bucket = children.get(name)
                if bucket is None:
                    bucket = children[name] = _Bucket(next(self._ids), name, parent, rid, start)
        return bucket

    def open_aggregate(self, name: str) -> _Frame:
        start = _now()
        bucket = self._bucket(name, start)
        frame = _Frame(bucket.id, name, bucket.parent, bucket.rid, start, bucket)
        self._stack().append(frame)
        return frame

    def add_aggregate(self, name: str, busy: int, start: int, calls: int = 1) -> None:
        bucket = self._bucket(name, start)
        bucket.n += calls
        bucket.busy += busy
        bucket.end = max(bucket.end, start + busy)

    def finish(self) -> None:
        """Emit aggregates that ran outside every span."""
        self._emit(self._roots)

    # -- wrappers ---------------------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        *,
        kind: str = "span",
        observe: Callable[["Tracer", Any], None] | None = None,
    ) -> bool:
        """Replace ``target`` with a traced wrapper; False if absent.

        ``kind`` is ``span``, ``aggregate``, ``generator`` or ``count``
        (a call counter under ``name``, no timing).  ``observe`` sees
        each call's result, for counts the layer metrics need (spill
        bytes, hosts per chunk).
        """
        try:
            owner, attr = resolve(target)
        except LookupError:
            self.absent.append(name)
            return False
        original = getattr(owner, attr)
        tracer = self

        if kind == "count":
            counts = self.counts

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return original(*args, **kwargs)

        elif kind == "generator":

            def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return tracer._timed_iter(name, original(*args, **kwargs))

        else:
            opener = self.open if kind == "span" else self.open_aggregate

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = opener(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(frame)
                if observe is not None:
                    observe(tracer, result)
                return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        return True

    def _timed_iter(self, name: str, iterator: Iterable[Any]) -> Iterator[Any]:
        start = _now()
        busy = 0
        mark = start
        for item in iterator:
            busy += _now() - mark
            yield item
            mark = _now()
        busy += _now() - mark
        self.add_aggregate(name, busy, start)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------------

    def flush(self, path: str) -> None:
        """Append the records not yet written to ``path`` (JSONL)."""
        with self._lock:
            pending = self.records[self._flushed:]
            self._flushed += len(pending)
        if not pending:
            return
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for record in pending:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def reset_after_fork(self) -> None:
        """A forked child starts with an empty trace of its own."""
        self.records = []
        self._flushed = 0
        self._roots = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.pid = os.getpid()


def self_times(records: Iterable[dict]) -> dict[str, float]:
    """Summed self time (ns) per span name.

    Self time is a record's busy time minus the busy time of its
    direct children, which never overlap one another because every
    child ran on its parent's thread.
    """
    records = list(records)
    child_busy: defaultdict[tuple[int, int], int] = defaultdict(int)
    for record in records:
        if record["parent"] is not None:
            child_busy[(record["pid"], record["parent"])] += record["busy"]
    totals: defaultdict[str, float] = defaultdict(float)
    for record in records:
        totals[record["name"]] += record["busy"] - child_busy.get((record["pid"], record["id"]), 0)
    return dict(totals)


def self_after(records: Iterable[dict], name: str, marker: str) -> float:
    """Self time (ns) of ``name`` spans after their ``marker`` child ends.

    Splits one span's self time into phases: the classify run's self
    time after its executor returns is the merge, while the time
    before it is set-up that no layer claims.
    """
    records = list(records)
    children: defaultdict[tuple[int, int], list[dict]] = defaultdict(list)
    for record in records:
        if record["parent"] is not None:
            children[(record["pid"], record["parent"])].append(record)
    total = 0.0
    for record in records:
        if record["name"] != name:
            continue
        kids = children.get((record["pid"], record["id"]), [])
        ends = [kid["end"] for kid in kids if kid["name"] == marker]
        if not ends:
            continue
        cut = max(ends)
        total += record["end"] - cut - sum(kid["busy"] for kid in kids if kid["start"] >= cut)
    return total


def load_records(paths: Iterable[str]) -> list[dict]:
    records: list[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records
