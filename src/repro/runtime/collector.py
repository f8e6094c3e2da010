"""Pausing the cyclic garbage collector around allocation-heavy work."""

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore its state.

    For work whose allocations live until it returns and form no cycle,
    where a collection would only walk the resident world again.  The
    previous state comes back on every exit path.  The pause is
    process-global while active: no thread's allocations are collected,
    and a process forked meanwhile (a pool worker) starts with it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
