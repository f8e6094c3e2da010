"""Chunk-granular checkpointing for the task runtime.

A :class:`CheckpointStore` spills each completed task's result to its
own file under a directory, so a killed run resumes from the last
completed chunk instead of the beginning.  Three properties make that
safe:

* **atomic per-task files** — results are written through
  :class:`AtomicFile` (unique temp name, fsync, ``os.replace``), so a
  kill mid-write leaves no half checkpoint; an unreadable file is
  treated as absent, never trusted;
* **a fingerprint manifest** — the caller describes the run (universe,
  history, chunking) as an opaque fingerprint; :meth:`reconcile` wipes
  checkpoints written under any other fingerprint, so a resumed run can
  only ever reuse results that are bit-identical to what it would
  compute itself;
* **identity by task id** — file names derive from the caller's stable
  task ids (chunk indexes for classify runs), so resuming re-executes
  exactly the ids without a checkpoint file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import secrets
from typing import Any, BinaryIO

from repro.fingerprint import fingerprint as _fingerprint

#: Sentinel for "no checkpoint for this task id" — distinct from a
#: legitimately-None payload.
MISSING = object()

_MANIFEST_NAME = "manifest.json"
_SAFE_ID = re.compile(r"[^A-Za-z0-9_.-]+")
_TEMP_SUFFIX = ".tmp"


class AtomicFile:
    """A temp file beside ``path`` that lands there whole or not at all.

    The one crash-safe write primitive for every durable format
    (checkpoints, PSLCLSP1 spills, pipeline artifacts, the EpochBus,
    failure reports).  The temp file sits in the target's directory
    under a random name created exclusively, so concurrent writers to
    one path never share a temp file (and it gets the permissions a
    plain ``open`` would); :meth:`commit` flushes and fsyncs it, then
    ``os.replace`` moves it into place, so readers see the old file or
    the new one, never a torn one.  As a context manager it yields the
    handle (opened read-write, so a writer can read back what it wrote)
    and commits on a clean exit, discards on an exception.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory, name = os.path.split(path)
        self._temp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}{_TEMP_SUFFIX}")
        self.handle: BinaryIO = open(self._temp, "x+b")

    def commit(self) -> None:
        try:
            self.handle.flush()
            os.fsync(self.handle.fileno())
            self.handle.close()
            os.replace(self._temp, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self) -> None:
        self.handle.close()
        try:
            os.unlink(self._temp)
        except OSError:
            pass

    def __enter__(self) -> BinaryIO:
        return self.handle

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def remove_temp_files(directory: str) -> None:
    """Delete the temp files that killed :class:`AtomicFile` writes left
    in ``directory`` (a missing directory has none).

    Only for directories one run owns: in a directory shared by live
    writers, another process's temp file may be a write in flight.
    """
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return
    for name in names:
        if name.startswith(".") and name.endswith(_TEMP_SUFFIX):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through one :class:`AtomicFile`."""
    with AtomicFile(path) as handle:
        handle.write(payload)


class CheckpointStore:
    """A directory of per-task result spills plus a run manifest."""

    def __init__(self, directory: str) -> None:
        self._directory = directory
        os.makedirs(directory, exist_ok=True)

    @property
    def directory(self) -> str:
        return self._directory

    def _task_path(self, task_id: str) -> str:
        safe = _SAFE_ID.sub("_", task_id) or "task"
        digest = hashlib.sha256(task_id.encode("utf-8")).hexdigest()[:12]
        return os.path.join(self._directory, f"{safe}-{digest}.pkl")

    def _manifest_path(self) -> str:
        return os.path.join(self._directory, _MANIFEST_NAME)

    # -- lifecycle ------------------------------------------------------------

    def reconcile(self, fingerprint: Any, *, resume: bool = True) -> None:
        """Bind the store to one run shape, clearing anything stale.

        ``fingerprint`` is either an already-computed digest string or
        any canonicalizable description of the run, which is keyed
        through :func:`repro.fingerprint.fingerprint` — the same scheme
        pipeline artifacts use, so the two layers can never disagree.
        With ``resume=False`` existing checkpoints are always dropped;
        otherwise they survive only when the recorded fingerprint
        matches exactly.  Temp files of killed writes are always
        dropped: the run that reconciles owns the directory.
        """
        if not isinstance(fingerprint, str):
            fingerprint = _fingerprint(fingerprint)
        recorded: str | None = None
        try:
            with open(self._manifest_path(), encoding="utf-8") as handle:
                recorded = json.load(handle).get("fingerprint")
        except (OSError, ValueError):
            recorded = None
        remove_temp_files(self._directory)
        if not resume or recorded != fingerprint:
            self.clear()
        atomic_write_bytes(
            self._manifest_path(), json.dumps({"fingerprint": fingerprint}).encode("utf-8")
        )

    def clear(self) -> None:
        """Drop every spilled result and any temp file a killed write
        left behind (the directory itself survives)."""
        for name in os.listdir(self._directory):
            if name.endswith(".pkl"):
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError:
                    pass
        remove_temp_files(self._directory)

    # -- per-task results -----------------------------------------------------

    def load(self, task_id: str) -> Any:
        """The spilled result for ``task_id``, or :data:`MISSING`.

        A truncated or unreadable spill (e.g. from a kill mid-write on
        a filesystem without atomic replace) reads as missing — the
        task simply re-executes.
        """
        try:
            with open(self._task_path(task_id), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            return MISSING

    def save(self, task_id: str, payload: Any) -> None:
        """Atomically spill one completed task's result."""
        atomic_write_bytes(
            self._task_path(task_id),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def completed_count(self) -> int:
        """How many task results are currently spilled."""
        return sum(1 for name in os.listdir(self._directory) if name.endswith(".pkl"))

    # -- failure reports ------------------------------------------------------

    def write_report(self, payload: dict[str, Any], name: str = "failure_report.json") -> str:
        """Persist a failure report next to the checkpoints; returns its path."""
        path = os.path.join(self._directory, name)
        atomic_write_bytes(path, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))
        return path
