"""Canonical fingerprinting: one keying scheme for every durable cache.

Pipeline artifacts (:mod:`repro.pipeline`) and the checkpoint manifests
that key classify resumes (:mod:`repro.runtime.checkpoint`,
:mod:`repro.classify.engine`) all derive their identities here, so two
layers can never disagree about what "the same run" means: the caller
describes the run as plain data (dicts, dataclasses, dates, sets, …),
:func:`fingerprint` canonicalizes it to sorted-key JSON and hashes it
with SHA-256.

Canonicalization rules (:func:`canonical`):

* mappings keep their keys, ordered by the JSON serializer;
* lists and tuples both become JSON arrays;
* sets and frozensets are sorted by their canonical JSON encoding, so
  iteration order (which varies under hash randomization) never leaks
  into a fingerprint;
* dataclasses become ``{"__dataclass__": <qualified name>, <fields…>}``
  — the type name is included so two configs with coincidentally equal
  fields key differently;
* enums become ``{"__enum__": <qualified name>, "value": …}``;
* dates/datetimes use ISO-8601; bytes are hex-encoded.

Anything else raises ``TypeError`` — an un-canonicalizable object in a
cache key is a caller bug, never something to guess about.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import hashlib
import json
from typing import Any

__all__ = ["canonical", "canonical_json", "fingerprint"]


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable data with deterministic order."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips; JSON serializes floats via repr already.
        return obj
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, enum.Enum):
        return {"__enum__": _qualified_name(type(obj)), "value": canonical(obj.value)}
    if isinstance(obj, datetime.datetime):
        return {"__datetime__": obj.isoformat()}
    if isinstance(obj, datetime.date):
        return {"__date__": obj.isoformat()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        reduced: dict[str, Any] = {"__dataclass__": _qualified_name(type(obj))}
        for field in dataclasses.fields(obj):
            reduced[field.name] = canonical(getattr(obj, field.name))
        return reduced
    if isinstance(obj, dict):
        return {key: canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonical(item) for item in obj]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for fingerprinting")


def canonical_json(obj: Any) -> str:
    """The canonical JSON encoding of ``obj`` (sorted keys, no spaces)."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``.

    Strings pass through canonicalization like any other value, so
    ``fingerprint("abc") != "abc"`` — a fingerprint is always a digest,
    never the raw material.
    """
    return hashlib.sha256(
        canonical_json(obj).encode("utf-8", "surrogatepass")
    ).hexdigest()
