"""Typed stage declarations and the DAG executor.

A :class:`Stage` declares *what* one step of the reproduction computes
(a name, a version tag, its upstream stages, its resolved parameters)
and *how* (a builder callable).  A :class:`Pipeline` wires stages into
a DAG over an :class:`~repro.pipeline.store.ArtifactStore` and answers
one question — :meth:`Pipeline.build` — by either loading the stage's
content-addressed artifact or computing it from (equally cached)
upstreams.

**Fingerprint recipe.**  A stage's fingerprint is
:func:`repro.fingerprint.fingerprint` over::

    {"scheme": "pipeline-v1", "stage": name, "version": version,
     "params": params, "upstream": {name: upstream fingerprint, …}}

The recursion over upstream *fingerprints* (not payload bytes) is
deliberate: pickled payloads are not byte-stable across processes
(set iteration order varies under hash randomization), while the
version/params recursion is — which is what lets a second process hit
the first one's artifacts.  Payload digests still guard *integrity*:
the store refuses any artifact whose bytes fail their recorded SHA-256.
Editing one stage (version bump, param change) therefore re-keys
exactly that stage and its downstream cone; siblings keep their
fingerprints and their artifacts.

Every ``build`` resolution is recorded in a :class:`PipelineReport` —
hit/miss source, wall time, payload bytes per stage — which the CLI
prints under ``--explain`` and persists as JSON next to the store.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.fingerprint import fingerprint
from repro.pipeline.store import ArtifactStore, memory_store

__all__ = [
    "Pipeline",
    "PipelineReport",
    "Stage",
    "StageContext",
    "StageExecution",
]


@dataclass(frozen=True)
class StageContext:
    """What a builder may know about its own invocation."""

    stage: str
    fingerprint: str
    store: ArtifactStore


@dataclass(frozen=True)
class Stage:
    """One node of the artifact DAG.

    ``build(inputs, ctx)`` receives the materialized upstream values
    keyed by stage name plus a :class:`StageContext` (whose
    ``fingerprint`` is this stage's own — the sweep stage forwards it
    to the runtime checkpoint manifest so both layers share one key).

    ``params`` must be canonicalizable by :mod:`repro.fingerprint`;
    they are fingerprint material only — builders close over whatever
    runtime knobs they need.

    ``cache=False`` makes the stage transparent: never stored, always
    recomputed (side-effectful terminals like the release export).
    ``persist`` optionally gates the *disk* layer per value — e.g. a
    degraded sweep stays memory-only so no later run resumes from it.
    ``raw=True`` declares the stage's value is ``bytes`` to be stored
    verbatim (no pickle envelope) so consumers can ``mmap`` the
    artifact file :meth:`Pipeline.path` returns — the packed-snapshot
    kind.
    """

    name: str
    build: Callable[[Mapping[str, Any], StageContext], Any]
    version: str = "1"
    upstream: tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    cache: bool = True
    persist: Optional[Callable[[Any], bool]] = None
    raw: bool = False

    def renamed(self, name: str, upstream_map: Mapping[str, str]) -> "Stage":
        """A copy under a new name with upstream references remapped
        (how one DAG hosts the same world shape twice).  The builder
        still sees its inputs under the *original* upstream names, so
        stage bodies stay oblivious to the hosting DAG's namespace.
        """
        inverse = {upstream_map.get(up, up): up for up in self.upstream}
        original_build = self.build

        def build(inputs: Mapping[str, Any], ctx: StageContext) -> Any:
            return original_build(
                {inverse.get(key, key): value for key, value in inputs.items()}, ctx
            )

        return replace(
            self,
            name=name,
            upstream=tuple(upstream_map.get(up, up) for up in self.upstream),
            build=build,
        )


@dataclass(frozen=True, slots=True)
class StageExecution:
    """One ``build`` resolution: where the value came from and at what cost."""

    stage: str
    fingerprint: str
    source: str  # "memory" | "disk" | "computed"
    seconds: float
    nbytes: int


class PipelineReport:
    """Per-stage observability for one pipeline run."""

    def __init__(self) -> None:
        self.executions: list[StageExecution] = []

    def record(self, execution: StageExecution) -> None:
        self.executions.append(execution)

    # -- aggregation ----------------------------------------------------------

    def count(self, source: str) -> int:
        return sum(1 for execution in self.executions if execution.source == source)

    @property
    def hits(self) -> int:
        """Resolutions served from a cache layer (memory or disk)."""
        return self.count("memory") + self.count("disk")

    @property
    def misses(self) -> int:
        """Resolutions that had to run the stage builder."""
        return self.count("computed")

    def computed_stages(self) -> tuple[str, ...]:
        """Names of the stages whose builders actually ran, in order."""
        return tuple(e.stage for e in self.executions if e.source == "computed")

    def to_json(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stages": [
                {
                    "stage": e.stage,
                    "fingerprint": e.fingerprint,
                    "source": e.source,
                    "seconds": round(e.seconds, 6),
                    "bytes": e.nbytes,
                }
                for e in self.executions
            ],
        }

    def render(self) -> str:
        """The ``--explain`` table."""
        lines = [
            "Pipeline report "
            f"({self.hits} hits: {self.count('memory')} memory / "
            f"{self.count('disk')} disk; {self.misses} computed)",
            f"  {'stage':24s} {'source':9s} {'seconds':>9s} {'bytes':>12s}  fingerprint",
        ]
        for e in self.executions:
            lines.append(
                f"  {e.stage:24s} {e.source:9s} {e.seconds:9.3f} "
                f"{e.nbytes:12,d}  {e.fingerprint[:12]}"
            )
        return "\n".join(lines)

    def save(self, path: str) -> str:
        """Persist the report as JSON; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1, sort_keys=True)
        return path


class Pipeline:
    """A DAG of stages over one artifact store."""

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        store: ArtifactStore | None = None,
        report: PipelineReport | None = None,
    ) -> None:
        self._stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            self._stages[stage.name] = stage
        self._store = store if store is not None else memory_store()
        self.report = report if report is not None else PipelineReport()
        self._fingerprints: dict[str, str] = {}
        self._validate()

    def _validate(self) -> None:
        """Reject unknown upstream references and cycles at wiring time."""
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(name: str, chain: tuple[str, ...]) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                raise ValueError(f"stage cycle: {' -> '.join(chain + (name,))}")
            state[name] = 1
            for up in self._stages[name].upstream:
                if up not in self._stages:
                    raise ValueError(f"stage {name!r} names unknown upstream {up!r}")
                visit(up, chain + (name,))
            state[name] = 2

        for name in self._stages:
            visit(name, ())

    # -- introspection --------------------------------------------------------

    @property
    def store(self) -> ArtifactStore:
        return self._store

    def stage_names(self) -> tuple[str, ...]:
        return tuple(self._stages)

    def stage(self, name: str) -> Stage:
        return self._stages[name]

    def fingerprint_of(self, name: str) -> str:
        """The content address of ``name`` (pure — builds nothing)."""
        cached = self._fingerprints.get(name)
        if cached is not None:
            return cached
        stage = self._stages[name]
        material = {
            "scheme": "pipeline-v1",
            "stage": stage.name,
            "version": stage.version,
            "params": dict(stage.params),
            "upstream": {up: self.fingerprint_of(up) for up in stage.upstream},
        }
        value = fingerprint(material)
        self._fingerprints[name] = value
        return value

    def peek(self, name: str) -> Any | None:
        """The stage's memory-resident value, if this process built or
        loaded it — never triggers work."""
        return self._store.peek(name, self.fingerprint_of(name))

    # -- execution ------------------------------------------------------------

    def _record(self, name: str, source: str, seconds: float, nbytes: int) -> None:
        self.report.record(
            StageExecution(name, self.fingerprint_of(name), source, seconds, nbytes)
        )

    def build(self, name: str) -> Any:
        """The stage's value — loaded from the store when addressable,
        computed (and stored) otherwise."""
        stage = self._stages[name]
        stage_fingerprint = self.fingerprint_of(name)
        if stage.cache:
            started = time.perf_counter()
            found = self._store.get(name, stage_fingerprint)
            if found is not None:
                value, artifact, source = found
                self._record(name, source, time.perf_counter() - started, artifact.nbytes)
                return value
        inputs = {up: self.build(up) for up in stage.upstream}
        started = time.perf_counter()
        value = stage.build(inputs, StageContext(name, stage_fingerprint, self._store))
        elapsed = time.perf_counter() - started
        nbytes = 0
        if stage.cache:
            persist = self._store.persistent and (
                stage.persist is None or stage.persist(value)
            )
            artifact = self._store.put(
                name, stage_fingerprint, value, persist=persist, raw=stage.raw
            )
            nbytes = artifact.nbytes
        self._record(name, "computed", elapsed, nbytes)
        return value

    def path(self, name: str) -> str | None:
        """The digest-verified payload file of stage ``name``.

        How ``mmap`` consumers open a raw artifact: a warm store answers
        from the file alone (streamed through SHA-256, never loaded),
        and the stage is built — and stored — only when no verified
        file exists.  ``None`` when the store has no disk layer; the
        caller then takes the bytes from :meth:`build`.
        """
        if not self._store.persistent:
            return None
        stage_fingerprint = self.fingerprint_of(name)
        started = time.perf_counter()
        path = self._store.payload_path(name, stage_fingerprint)
        if path is None:
            self.build(name)
            return self._store.payload_path(name, stage_fingerprint)
        self._record(name, "disk", time.perf_counter() - started, os.path.getsize(path))
        return path
