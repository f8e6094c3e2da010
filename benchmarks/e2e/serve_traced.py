"""Run ``psl-serve`` with the benchmark's layer wrappers installed.

Usage::

    python benchmarks/e2e/serve_traced.py --trace-prefix PREFIX -- [psl-serve args]

Spans stay in memory and are appended to ``PREFIX-<pid>.jsonl`` every
quarter second.  Fleet workers are forked and leave through
``os._exit``, so each process — the forked ones included — runs its
own flush timer rather than relying on an exit hook.
"""

from __future__ import annotations

import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.e2e.layers import install_serve  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402

FLUSH_PERIOD = 0.25


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-prefix" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    prefix, serve_args = argv[1], argv[3:]
    tracer = Tracer()
    install_serve(tracer)

    def path() -> str:
        return f"{prefix}-{os.getpid()}.jsonl"

    def flush_forever() -> None:
        while True:
            time.sleep(FLUSH_PERIOD)
            tracer.flush(path())

    def start_flusher() -> None:
        threading.Thread(target=flush_forever, name="trace-flush", daemon=True).start()

    def after_fork() -> None:
        tracer.reset_after_fork()
        start_flusher()

    os.register_at_fork(after_in_child=after_fork)
    start_flusher()

    from repro.serve.cli import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.finish()
        tracer.flush(path())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
