"""The content-addressed artifact store.

Two layers, one address space:

* a **memory layer** — a plain dict keyed by ``(stage, fingerprint)``,
  which is what makes repeated :meth:`~repro.pipeline.Pipeline.build`
  calls inside one process free;
* an optional **disk layer** — ``directory/<stage>/<fingerprint>.pkl``
  payloads with a ``.json`` meta sidecar carrying the payload's SHA-256
  digest, which is what lets a second *process* reuse the first one's
  work.

Writes use the same atomic-replace discipline as the classify
checkpoints (:func:`repro.runtime.checkpoint.atomic_write_bytes`): a
kill mid-write leaves a ``.<name>.<random>.tmp`` file beside the
target, never a half artifact.  The store never removes those temp
files itself, because several processes may share one directory and
another one's temp file may be a write in flight; after a crash,
delete the stale ones by hand (``find DIR -name '.*.tmp' -delete``
while nothing is writing).  Loads verify the payload
digest against the meta sidecar before unpickling — a truncated or
bit-flipped artifact reads as *absent* (and is recomputed), never
trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from dataclasses import dataclass
from typing import Any, Optional

from repro.runtime.checkpoint import atomic_write_bytes

__all__ = ["Artifact", "ArtifactStore", "memory_store"]

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


@dataclass(frozen=True, slots=True)
class Artifact:
    """One materialized stage output.

    ``digest`` is the SHA-256 of the pickled payload bytes (empty for
    memory-only artifacts, which never leave the process and need no
    integrity check); ``path`` is the on-disk payload, or ``None``.
    """

    stage: str
    fingerprint: str
    digest: str
    nbytes: int
    path: Optional[str]

    @property
    def persisted(self) -> bool:
        return self.path is not None


class ArtifactStore:
    """Content-addressed artifact storage (memory over optional disk)."""

    def __init__(self, directory: str | None = None) -> None:
        self._directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._memory: dict[tuple[str, str], tuple[Any, Artifact]] = {}

    @property
    def directory(self) -> str | None:
        return self._directory

    @property
    def persistent(self) -> bool:
        return self._directory is not None

    # -- addressing -----------------------------------------------------------

    def _paths(self, stage: str, fingerprint: str, *, raw: bool = False) -> tuple[str, str]:
        assert self._directory is not None
        safe = _SAFE_NAME.sub("_", stage) or "stage"
        stage_dir = os.path.join(self._directory, safe)
        base = os.path.join(stage_dir, fingerprint)
        return f"{base}.bin" if raw else f"{base}.pkl", f"{base}.json"

    # -- reads ----------------------------------------------------------------

    def _verified(
        self, stage: str, fingerprint: str, *, read: bool
    ) -> tuple[str, str, bytes | None, bool] | None:
        """``(payload path, digest, payload, raw)`` for a disk artifact
        whose bytes match its meta sidecar's SHA-256, else ``None``.

        ``read=False`` streams the file through the hash and returns
        ``payload=None``; either way the file is read once.
        """
        if self._directory is None:
            return None
        _, meta_path = self._paths(stage, fingerprint)
        try:
            with open(meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
            raw = meta.get("format", "pickle") == "raw"
            payload_path, _ = self._paths(stage, fingerprint, raw=raw)
            with open(payload_path, "rb") as handle:
                if read:
                    payload = handle.read()
                    digest = hashlib.sha256(payload).hexdigest()
                else:  # streamed (hashlib.file_digest needs Python 3.11)
                    payload, sha, block = None, hashlib.sha256(), memoryview(bytearray(1 << 18))
                    while count := handle.readinto(block):
                        sha.update(block[:count])
                    digest = sha.hexdigest()
            if digest != meta.get("digest"):
                return None
        except (OSError, ValueError, KeyError, AttributeError):
            return None
        return payload_path, digest, payload, raw

    def get(self, stage: str, fingerprint: str) -> tuple[Any, Artifact, str] | None:
        """The stored value for a stage fingerprint, or ``None``.

        Returns ``(value, artifact, source)`` with ``source`` one of
        ``"memory"`` / ``"disk"``.  Disk artifacts that fail any check
        (missing meta, digest mismatch, unpicklable payload) read as
        absent.
        """
        entry = self._memory.get((stage, fingerprint))
        if entry is not None:
            return entry[0], entry[1], "memory"
        found = self._verified(stage, fingerprint, read=True)
        if found is None:
            return None
        payload_path, digest, payload, raw = found
        try:
            value = payload if raw else pickle.loads(payload)
        except (ValueError, KeyError, EOFError,
                pickle.UnpicklingError, AttributeError, ImportError):
            return None
        artifact = Artifact(
            stage=stage,
            fingerprint=fingerprint,
            digest=digest,
            nbytes=len(payload),
            path=payload_path,
        )
        self._memory[(stage, fingerprint)] = (value, artifact)
        return value, artifact, "disk"

    def peek(self, stage: str, fingerprint: str) -> Any | None:
        """The memory-resident value only — never touches disk."""
        entry = self._memory.get((stage, fingerprint))
        return entry[0] if entry is not None else None

    def payload_path(self, stage: str, fingerprint: str) -> str | None:
        """The verified on-disk payload path, or ``None``.

        The zero-copy entry point: ``mmap`` consumers (packed snapshot
        histories) want the artifact *file*, not its bytes in the heap.
        The payload is streamed through SHA-256 and checked against the
        meta sidecar first, never loaded — a corrupt artifact returns
        ``None``, same as :meth:`get`.
        """
        found = self._verified(stage, fingerprint, read=False)
        return found[0] if found is not None else None

    # -- writes ---------------------------------------------------------------

    def put(
        self,
        stage: str,
        fingerprint: str,
        value: Any,
        *,
        persist: bool = True,
        raw: bool = False,
    ) -> Artifact:
        """Store one stage output; returns its :class:`Artifact`.

        ``persist=False`` keeps the value memory-only even when the
        store has a disk layer (used e.g. for degraded sweeps, which
        must never be resumed from).

        ``raw=True`` stores ``value`` (which must be ``bytes``) as-is —
        no pickle envelope — under a ``.bin`` payload whose meta
        sidecar records ``"format": "raw"``.  Raw artifacts are the
        mmap-able kind: :meth:`payload_path` hands back the verified
        file for zero-copy loading.
        """
        if raw and not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"raw artifacts must be bytes, got {type(value).__name__}")
        if self._directory is not None and persist:
            if raw:
                payload = bytes(value)
            else:
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest()
            payload_path, meta_path = self._paths(stage, fingerprint, raw=raw)
            os.makedirs(os.path.dirname(payload_path), exist_ok=True)
            # Payload first, meta last: a kill in between leaves a
            # payload without meta, which get() treats as absent.
            atomic_write_bytes(payload_path, payload)
            meta = {
                "stage": stage,
                "fingerprint": fingerprint,
                "digest": digest,
                "bytes": len(payload),
                "format": "raw" if raw else "pickle",
            }
            atomic_write_bytes(
                meta_path, json.dumps(meta, sort_keys=True, indent=1).encode("utf-8")
            )
            artifact = Artifact(stage, fingerprint, digest, len(payload), payload_path)
        else:
            artifact = Artifact(stage, fingerprint, "", 0, None)
        self._memory[(stage, fingerprint)] = (value, artifact)
        return artifact


_SHARED: ArtifactStore | None = None


def memory_store() -> ArtifactStore:
    """The process-wide shared memory-only store.

    This is what replaces the old per-module memo dicts: every context
    built without an explicit store lands here, keyed by fingerprint,
    so benchmarks, examples, tests, and the CLI all reuse one world
    within a process.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = ArtifactStore()
    return _SHARED
