"""Shared experiment context, backed by the artifact pipeline.

Synthesizing the world (1,142-version history, 273-repository corpus,
multi-hundred-thousand-hostname snapshot) takes seconds; every
experiment needs some subset of it.  Each world component is a
:class:`repro.pipeline.Stage` — ``history``, ``corpus``, ``snapshot``,
``classifications``, ``datings``, plus the Figures 5-7 ``sweep`` — so
contexts are thin views over a content-addressed
:class:`~repro.pipeline.ArtifactStore`: within a process every context
with the same configuration shares one world (the store's memory
layer), and a context built over a disk store reuses worlds across
*processes* too.

Two presets matter:

* :func:`tables_context` — ``harm_scale=1.0``: the populations under
  the calibrated missing eTLDs are paper-exact, which Tables 2 and 3
  require.
* :func:`figures_context` — a larger background web and scaled-down
  harm populations, restoring the *proportions* of the real dataset
  (where the 50,750 affected hostnames are a sliver of the whole);
  the Figure 5-7 curve shapes match the paper under this preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.analysis.boundaries import SweepResult, run_sweep
from repro.history.store import VersionStore
from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.pipeline import ArtifactStore, Pipeline, Stage, StageContext, memory_store
from repro.psl.packed import pack_history
from repro.repos.classifier import Classification, classify
from repro.repos.corpus import CorpusConfig, build_corpus
from repro.repos.dating import DatingResult, ListDater
from repro.repos.model import Repository
from repro.webgraph.archive import Snapshot
from repro.webgraph.synthesis import SnapshotConfig, synthesize_snapshot

DEFAULT_SEED = 20230701

#: The stage roles every world pipeline provides.
WORLD_STAGES = (
    "history",
    "corpus",
    "snapshot",
    "classifications",
    "datings",
    "sweep",
    "packed",
)


@dataclass(frozen=True, slots=True)
class SweepSettings:
    """Execution knobs for the sweep stage.

    Only ``workers`` is fingerprint material (the ISSUE of record for a
    sweep); ``checkpoint_dir``/``resume`` change *how* a sweep executes
    and recovers, never what it computes, so they stay out of the key.
    ``on_result`` observes every freshly computed sweep (the CLI uses
    it to catch degraded runs).
    """

    workers: int = 1
    checkpoint_dir: str | None = None
    resume: bool = False
    on_result: Callable[[SweepResult], None] | None = None


def world_stages(
    seed: int,
    snapshot_config: SnapshotConfig,
    sweep: SweepSettings = SweepSettings(),
) -> tuple[Stage, ...]:
    """The six world stages for one (seed, snapshot configuration).

    Stage versions are bumped only when the synthesis itself changes
    meaning; parameter changes (seed, scales) re-key automatically.
    """

    def build_history(inputs: Mapping[str, Any], ctx: StageContext) -> VersionStore:
        return synthesize_history(SynthesisConfig(seed=seed))

    def build_corpus_stage(
        inputs: Mapping[str, Any], ctx: StageContext
    ) -> list[Repository]:
        return build_corpus(inputs["history"], CorpusConfig(seed=seed))

    def build_snapshot(inputs: Mapping[str, Any], ctx: StageContext) -> Snapshot:
        store: VersionStore = inputs["history"]
        rule_names: set[str] = set()
        for version in store:
            for rule in version.delta.added:
                rule_names.add(rule.name)
        return synthesize_snapshot(
            snapshot_config, forbidden_suffixes=frozenset(rule_names)
        )

    def build_classifications(
        inputs: Mapping[str, Any], ctx: StageContext
    ) -> dict[str, Classification]:
        results: dict[str, Classification] = {}
        for repo in inputs["corpus"]:
            verdict = classify(repo)
            if verdict is not None:
                results[repo.name] = verdict
        return results

    def build_datings(
        inputs: Mapping[str, Any], ctx: StageContext
    ) -> dict[str, DatingResult | None]:
        dater = ListDater(inputs["history"])
        results: dict[str, DatingResult | None] = {}
        for repo in inputs["corpus"]:
            paths = repo.psl_paths()
            results[repo.name] = (
                dater.date_text(repo.files[paths[0]]) if paths else None
            )
        return results

    def build_sweep(inputs: Mapping[str, Any], ctx: StageContext) -> SweepResult:
        # The stage's own fingerprint keys the runtime checkpoint
        # manifest too — artifact store and checkpoint spills can never
        # disagree about what "the same sweep" is.
        result = run_sweep(
            inputs["history"],
            inputs["snapshot"],
            workers=sweep.workers,
            checkpoint_dir=sweep.checkpoint_dir,
            resume=sweep.resume,
            fingerprint=ctx.fingerprint,
        )
        if sweep.on_result is not None:
            sweep.on_result(result)
        return result

    def sweep_is_clean(result: SweepResult) -> bool:
        report = result.failure_report
        return report is None or not report.degraded

    def build_packed(inputs: Mapping[str, Any], ctx: StageContext) -> bytes:
        return pack_history(inputs["history"])

    return (
        Stage(
            name="history",
            build=build_history,
            params={"seed": seed},
        ),
        Stage(
            name="corpus",
            build=build_corpus_stage,
            upstream=("history",),
            params={"seed": seed},
        ),
        Stage(
            name="snapshot",
            build=build_snapshot,
            upstream=("history",),
            params={"config": snapshot_config},
        ),
        Stage(
            name="classifications",
            build=build_classifications,
            upstream=("corpus",),
        ),
        Stage(
            name="datings",
            build=build_datings,
            upstream=("history", "corpus"),
        ),
        Stage(
            name="sweep",
            build=build_sweep,
            # 2: results come from the classify engine and carry its
            # failure report type; re-keys stores holding older pickles.
            version="2",
            upstream=("history", "snapshot"),
            params={
                "workers": sweep.workers,
                "sites": True,
                "divergence": True,
                "baseline": -1,
            },
            # A degraded sweep (quarantined chunks) must never seed a
            # later run from disk; it stays memory-only.
            persist=sweep_is_clean,
        ),
        Stage(
            name="packed",
            build=build_packed,
            upstream=("history",),
            # Raw bytes on disk: consumers mmap the artifact file itself
            # (Pipeline.path) so N processes share one physical copy of
            # the whole history.
            raw=True,
        ),
    )


def world_pipeline(seed: int, cache_dir: str | None) -> Pipeline:
    """The world stages for ``seed`` over a disk store at ``cache_dir``,
    or over a fresh memory-only store when it is ``None``.

    ``psl-serve`` and ``psl-classify`` read their history and packed
    blob through this: the same stages and fingerprints as
    ``psl-repro --cache-dir``, so one store serves all three.
    """
    return Pipeline(
        world_stages(seed, SnapshotConfig(seed=seed)), store=ArtifactStore(cache_dir)
    )


@dataclass
class ExperimentContext:
    """A view over the world stages of one pipeline.

    Constructed bare (``ExperimentContext(seed=...)``) it wires its own
    single-world pipeline over the process-wide memory store;
    :func:`repro.analysis.pipeline.paper_pipeline` instead hands every
    context one merged DAG plus a ``stage_names`` alias map (the
    figures world's stages carry an ``@figures`` suffix there).
    """

    seed: int = DEFAULT_SEED
    snapshot_config: SnapshotConfig = field(default_factory=SnapshotConfig)
    pipeline: Optional[Pipeline] = field(default=None, repr=False)
    stage_names: Mapping[str, str] = field(default_factory=dict, repr=False)

    _dater: Optional[ListDater] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pipeline is None:
            self.pipeline = Pipeline(
                world_stages(self.seed, self.snapshot_config), store=memory_store()
            )

    def _build(self, role: str) -> Any:
        return self.pipeline.build(self.stage_names.get(role, role))

    def stage_fingerprint(self, role: str) -> str:
        """The pipeline fingerprint of one of this context's stages."""
        return self.pipeline.fingerprint_of(self.stage_names.get(role, role))

    @property
    def store(self) -> VersionStore:
        """The synthetic 1,142-version history."""
        return self._build("history")

    @property
    def corpus(self) -> list[Repository]:
        """The 273-repository corpus."""
        return self._build("corpus")

    @property
    def snapshot(self) -> Snapshot:
        """The synthetic crawl snapshot, paired with this history.

        Every rule name the history ever carried is excluded from the
        generated background domains, so only the intended populations
        sit under suffix rules.
        """
        return self._build("snapshot")

    @property
    def dater(self) -> ListDater:
        """A list dater bound to this context's history."""
        if self._dater is None:
            self._dater = ListDater(self.store)
        return self._dater

    @property
    def classifications(self) -> dict[str, Classification]:
        """Repository name -> classifier verdict, for the whole corpus."""
        return self._build("classifications")

    @property
    def datings(self) -> dict[str, "DatingResult | None"]:
        """Repository name -> dating of its (first) vendored list."""
        return self._build("datings")

    def sweep_result(self) -> SweepResult:
        """The Figures 5-7 version sweep for this world, through the
        pipeline — the artifact replaces the old ``id()``-keyed module
        cache (whose keys could be reused after garbage collection)."""
        return self._build("sweep")


def get_context(
    seed: int = DEFAULT_SEED, snapshot_config: SnapshotConfig | None = None
) -> ExperimentContext:
    """A context for a (seed, snapshot configuration) pair.

    Contexts themselves are cheap; the expensive world components are
    shared by fingerprint through the process-wide memory store, so two
    calls with equal configuration reuse one world.
    """
    config = snapshot_config or SnapshotConfig(seed=seed)
    return ExperimentContext(seed=seed, snapshot_config=config)


def tables_config(seed: int = DEFAULT_SEED) -> SnapshotConfig:
    """Snapshot preset for Tables 2-3: paper-exact harm populations."""
    return SnapshotConfig(seed=seed, harm_scale=1.0, bulk_scale=0.25)


def figures_config(seed: int = DEFAULT_SEED) -> SnapshotConfig:
    """Snapshot preset for Figures 5-7: real-world proportions."""
    return SnapshotConfig(seed=seed, harm_scale=0.15, bulk_scale=2.0)


def tables_context(seed: int = DEFAULT_SEED) -> ExperimentContext:
    """Preset for Tables 2-3: paper-exact harm populations."""
    return get_context(seed, tables_config(seed))


def figures_context(seed: int = DEFAULT_SEED) -> ExperimentContext:
    """Preset for Figures 5-7: real-world-proportioned populations."""
    return get_context(seed, figures_config(seed))
