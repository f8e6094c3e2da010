"""Third-party request classification (Figure 6).

A request is *third-party* when the requested host's site differs from
the page's site under the list version being evaluated.  As the PSL
changes, the same request flips between first- and third-party — that
flip rate is exactly the privacy signal the paper measures.

:func:`count_third_party` is the one-shot count under one version's
assignment.  Across versions, the classify engine re-evaluates only the
request pairs that touch a hostname whose site just changed
(:mod:`repro.classify.partials`); the engine tests compare its series
against this count per version.
"""

from __future__ import annotations

from typing import Mapping

from repro.webgraph.archive import Snapshot


def count_third_party(assignment: Mapping[str, str], snapshot: Snapshot) -> int:
    """Requests whose host is outside the page's site, one-shot."""
    total = 0
    for page_host, request_host in snapshot.iter_request_pairs():
        if assignment[page_host] != assignment[request_host]:
            total += 1
    return total
