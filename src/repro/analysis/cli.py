"""The ``psl-repro`` command: regenerate any table or figure.

Usage::

    psl-repro list                 # what can be regenerated
    psl-repro fig2                 # growth of the list
    psl-repro tab2                 # the harm table + headline
    psl-repro all                  # everything, in paper order
    psl-repro tab2 --seed 7        # a different synthetic world
    psl-repro all --cache-dir .psl-cache --explain

Every output renders through the artifact DAG of
:mod:`repro.analysis.pipeline`: within one invocation Figures 5-7 and
Tables 2-3 share one sweep per world, and with ``--cache-dir`` the
content-addressed store makes ``psl-repro fig5 && psl-repro tab2``
share it across *processes* too.  ``--explain`` prints the per-stage
hit/miss/wall-time report.

Figures 5-7 default to the figures preset (real-world proportions);
tables use the paper-exact harm populations.  See EXPERIMENTS.md for
the preset definitions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis import boundaries
from repro.analysis.pipeline import TERMINALS, PaperPipeline, SweepSettings, paper_pipeline
from repro.pipeline import ArtifactStore
from repro.runtime import atomic_write_bytes

# Sweep and store knobs set per process by ``psl-repro`` flags:
# ``--workers`` (results are bit-identical at any value),
# ``--checkpoint-dir`` (chunk-granular spill directory),
# ``--resume`` (reuse spills from a killed run instead of clearing),
# ``--cache-dir`` (the persistent artifact store).
_SWEEP_WORKERS = 1
_SWEEP_CHECKPOINT_DIR: str | None = None
_SWEEP_RESUME = False
_CACHE_DIR: str | None = None

#: Sweeps computed by this process, in order — the degraded-run check
#: reads the tail this invocation appended.
_SWEEP_SINK: list[boundaries.SweepResult] = []

#: Assembled DAGs, keyed by (seed, knobs) — replaces the old
#: ``id(context)``-keyed sweep cache, whose keys could be reused after
#: garbage collection and returned the wrong sweep.
_PIPELINES: dict[tuple, PaperPipeline] = {}

#: Exit status when a sweep completed degraded (quarantined chunks).
EXIT_DEGRADED = 3


def _paper(seed: int) -> PaperPipeline:
    """The (memoized) paper DAG for ``seed`` under the current knobs."""
    key = (seed, _SWEEP_WORKERS, _SWEEP_CHECKPOINT_DIR, _SWEEP_RESUME, _CACHE_DIR)
    if key not in _PIPELINES:
        store = ArtifactStore(_CACHE_DIR) if _CACHE_DIR is not None else None
        _PIPELINES[key] = paper_pipeline(
            seed,
            store=store,
            sweep=SweepSettings(
                workers=_SWEEP_WORKERS,
                checkpoint_dir=_SWEEP_CHECKPOINT_DIR,
                resume=_SWEEP_RESUME,
                on_result=_SWEEP_SINK.append,
            ),
        )
    return _PIPELINES[key]


def _diagnose_degraded(results: list[boundaries.SweepResult]) -> str | None:
    """One-line diagnosis when any sweep ran degraded, else None.

    Persists the full failure reports as JSON (next to the checkpoints
    when ``--checkpoint-dir`` was given, else in the working directory)
    so the quarantined task ids survive the process.
    """
    import json
    import os

    degraded = [
        result.failure_report
        for result in results
        if result.failure_report is not None and result.failure_report.degraded
    ]
    if not degraded:
        return None
    payload = {"sweeps": [report.to_json() for report in degraded]}
    directory = _SWEEP_CHECKPOINT_DIR or "."
    path = os.path.join(directory, "sweep_failure_report.json")
    try:
        atomic_write_bytes(path, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))
    except OSError:
        path = "<unwritable>"
    task_ids = sorted(
        {failure.task_id for report in degraded for failure in report.quarantined}
    )
    return (
        f"sweep degraded: quarantined chunks [{', '.join(task_ids)}] "
        f"excluded from the series; failure report at {path}"
    )


def _runner(name: str) -> Callable[[int], str]:
    def run(seed: int) -> str:
        return _paper(seed).render(name)

    run.__name__ = f"run_{name.replace('-', '_')}"
    run.__doc__ = f"Render the {name!r} terminal stage of the paper DAG."
    return run


EXPERIMENTS: dict[str, tuple[str, Callable[[int], str]]] = {
    name: (description, _runner(name)) for name, description in TERMINALS.items()
}

# The historical per-experiment entry points, still importable.
run_fig1 = EXPERIMENTS["fig1"][1]
run_fig2 = EXPERIMENTS["fig2"][1]
run_tab1 = EXPERIMENTS["tab1"][1]
run_fig3 = EXPERIMENTS["fig3"][1]
run_fig4 = EXPERIMENTS["fig4"][1]
run_fig5 = EXPERIMENTS["fig5"][1]
run_fig6 = EXPERIMENTS["fig6"][1]
run_fig7 = EXPERIMENTS["fig7"][1]
run_tab2 = EXPERIMENTS["tab2"][1]
run_tab3 = EXPERIMENTS["tab3"][1]
run_categories = EXPERIMENTS["ext-categories"][1]
run_updates = EXPERIMENTS["ext-updates"][1]
run_notify = EXPERIMENTS["ext-notify"][1]
run_exposure = EXPERIMENTS["ext-exposure"][1]
run_forecast = EXPERIMENTS["ext-forecast"][1]
run_whatif = EXPERIMENTS["ext-whatif"][1]
run_scorecard = EXPERIMENTS["scorecard"][1]
run_export = EXPERIMENTS["export"][1]


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``psl-repro``."""
    parser = argparse.ArgumentParser(
        prog="psl-repro",
        description="Regenerate the tables and figures of the PSL privacy-harms paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="which artifact to regenerate",
    )
    parser.add_argument("--seed", type=int, default=20230701, help="world seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the Figure 5-7 version sweep (1 = serial)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="spill completed sweep chunks here so a killed run can resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse checkpoints from a previous run in --checkpoint-dir",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact store: later invocations reuse every "
        "stage (history, snapshot, sweep, rendered outputs) that is "
        "bit-identical to what they would compute",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the per-stage pipeline report (hit/miss, bytes, seconds)",
    )
    arguments = parser.parse_args(argv)
    if arguments.workers < 1:
        parser.error("--workers must be positive")
    if arguments.resume and arguments.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    global _SWEEP_WORKERS, _SWEEP_CHECKPOINT_DIR, _SWEEP_RESUME, _CACHE_DIR
    _SWEEP_WORKERS = arguments.workers
    _SWEEP_CHECKPOINT_DIR = arguments.checkpoint_dir
    _SWEEP_RESUME = arguments.resume
    _CACHE_DIR = arguments.cache_dir

    if arguments.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:6s} {EXPERIMENTS[name][0]}")
        return 0

    paper = _paper(arguments.seed)
    pipeline_report = paper.reset_report()
    sink_mark = len(_SWEEP_SINK)
    names = list(EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    for position, name in enumerate(names):
        if position:
            print("\n" + "=" * 72 + "\n")
        print(EXPERIMENTS[name][1](arguments.seed))

    if arguments.explain:
        print("\n" + "=" * 72 + "\n")
        print(pipeline_report.render())
    if _CACHE_DIR is not None:
        import os

        try:
            pipeline_report.save(os.path.join(_CACHE_DIR, "pipeline_report.json"))
        except OSError:
            pass

    # A degraded sweep must not masquerade as a clean run: diagnose the
    # sweeps this invocation produced and exit nonzero.
    diagnosis = _diagnose_degraded(_SWEEP_SINK[sink_mark:])
    if diagnosis is not None:
        print(diagnosis, file=sys.stderr)
        return EXIT_DEGRADED
    return 0


if __name__ == "__main__":
    sys.exit(main())
