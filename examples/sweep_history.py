"""Sweep a web snapshot across a full list history.

The paper's Figures 5-7 ask one question 1,142 times: "how does this
web snapshot look under list version v?".  ``run_sweep`` answers all
versions in one delta-driven pass on the classify engine — each
worker replays the history's rule deltas on one trie per chunk of the
snapshot — and this example runs it over the synthetic history.

The one performance knob is ``workers`` (process count).  ``1``
(default) runs serially; any value produces bit-identical results, so
parallelism is purely a wall-clock decision (use > 1 only on
multi-core hosts).  ``psl-repro fig5 --workers N`` is the same sweep
without writing code.

Run: ``python examples/sweep_history.py``
"""

import time

from repro.analysis.boundaries import run_sweep
from repro.history.synthesis import synthesize_history
from repro.webgraph.synthesis import SnapshotConfig, synthesize_snapshot


def main() -> None:
    seed = 20230701
    store = synthesize_history()
    snapshot = synthesize_snapshot(
        SnapshotConfig(seed=seed, harm_scale=0.1, bulk_scale=0.25)
    )
    print(f"history: {len(store)} versions   universe: {len(snapshot.hostnames):,} "
          f"hostnames, {snapshot.request_count:,} requests\n")

    # All three per-version series (Figures 5, 6, 7) in one pass.
    begin = time.perf_counter()
    sweep = run_sweep(store, snapshot)  # try workers=4 on a big box
    elapsed = time.perf_counter() - begin
    print(f"swept {len(sweep.points)} versions in {elapsed:.2f}s "
          f"({elapsed / len(sweep.points) * 1000:.2f} ms/version amortized)\n")

    print("version   date         sites   3rd-party   diff-vs-latest")
    step = max(1, len(store) // 10)
    for point in sweep.points[::step]:
        print(f"{point.index:7d}   {point.date}   {point.site_count:6,d}  "
              f"{point.third_party_requests:9,d}   {point.diff_vs_latest:8,d}")
    print(f"\nthe newest list forms {sweep.additional_sites_latest_vs_first:+,d} "
          "sites versus the oldest")


if __name__ == "__main__":
    main()
