"""Drive the PSL query service as a client: lookups, batches, hot-swaps.

Boots a `PslServer` on an ephemeral port against a small synthesized
history, then talks to it the way a deployment would — over HTTP with
`urllib` — to show single lookups, version pinning, the batch API, the
misclassification probe, a live hot-swap, and the metrics scrape.

Run: ``python examples/serve_queries.py``
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.serve.engine import QueryEngine
from repro.serve.http import PslServer
from repro.serve.snapshots import SnapshotRegistry


def get_json(url: str, *, data: dict | None = None) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(data).encode() if data is not None else None,
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def main() -> None:
    print("synthesizing a small history and starting the server…")
    store = synthesize_history(SynthesisConfig(seed=20230701))
    registry = SnapshotRegistry(store, resident_capacity=4)
    engine = QueryEngine(registry)
    server = PslServer(("127.0.0.1", 0), registry, engine=engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = server.url
    print(f"serving {len(store)} versions at {base}")

    try:
        # -- single lookups, optionally pinned to an old version ----------
        print("\n== /site ==")
        for query in ("/site?host=www.shop.example.000webhostapp.com",
                      "/site?host=www.shop.example.000webhostapp.com&version=0"):
            answer = get_json(base + query)
            print(f"  v{answer['version']:>4}: {answer['hostname']}"
                  f"  site={answer['site']}  suffix={answer['public_suffix']}")

        # -- the batch API: one POST, one pinned snapshot -----------------
        print("\n== /batch ==")
        hosts = ["a.example.com", "b.github.io", "bad..name", "www.example.co.uk"]
        batch = get_json(base + "/batch", data={"hostnames": hosts})
        print(f"  {batch['count']} answers ({batch['errors']} rejected), "
              f"all pinned to v{batch['version']}")
        for item in batch["answers"]:
            if "error" in item:
                print(f"    {item['hostname']!r:28} -> 400 {item['error']['reason']}")
            else:
                print(f"    {item['hostname']!r:28} -> {item['site']}")

        # -- the misclassification probe ----------------------------------
        print("\n== /compare (old list vs. latest) ==")
        probe = get_json(base + "/compare?host=www.shop.example.000webhostapp.com&old=0")
        verdict = "DIVERGES" if probe["diverges"] else "stable"
        print(f"  {probe['hostname']}: v{probe['old']['version']} says "
              f"{probe['old']['site']}, v{probe['new']['version']} says "
              f"{probe['new']['site']}  [{verdict}]")

        # -- a live hot-swap: readers never notice ------------------------
        print("\n== /swap ==")
        swapped = get_json(base + "/swap?version=100", data={})
        print(f"  active is now v{swapped['active']['index']} "
              f"({swapped['active']['date']}, {swapped['active']['rule_count']} rules)")
        answer = get_json(base + "/site?host=www.shop.example.000webhostapp.com")
        print(f"  unpinned lookup now answers from v{answer['version']}: "
              f"site={answer['site']}")
        get_json(base + "/swap?version=latest", data={})

        # -- what the monitoring stack would scrape -----------------------
        print("\n== /metrics (excerpt) ==")
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode()
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            if line.startswith(("psl_serve_requests_total",
                                "psl_serve_hostname_lookups_total",
                                "psl_serve_snapshot_index",
                                "psl_serve_snapshot_swaps_total")):
                print("  " + line)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    print("\nserver stopped.")


if __name__ == "__main__":
    main()
