"""A deterministic synthetic upstream for the live-update loop.

The paper's harm model starts where a project's copy of the list and
the upstream repository diverge; to reproduce the *refresh* side of
that story this environment needs an upstream to refresh **from**.
:class:`SyntheticUpstream` plays publicsuffix/list: it owns a full
:class:`~repro.history.store.VersionStore` (the "truth"), publishes
its versions one index at a time, and serves two fetch shapes a real
consumer uses:

* ``patch(index)`` — the version's :class:`~repro.psl.diff.RuleDelta`
  as a ``psl-delta v1`` patch body (the cheap incremental path);
* ``full(index)`` — the complete rule set at ``index`` (the recovery
  path a consumer falls back to when its local tip no longer matches
  the patch chain, e.g. after quarantining a poisoned version).

Every response travels as a :class:`VersionEnvelope` carrying the
declared metadata (date, commit, rule count, order-independent
rule-set digest) and a SHA-256 checksum over the body, so the watcher
can validate end to end before touching its serving state.

**Faults are first-class**, through the task runtime's own
:class:`~repro.runtime.faults.FaultPlan`: it keys frozen
:class:`~repro.runtime.faults.Fault` records (``kind`` an
:class:`UpstreamFaultKind`) by operation (``head``, ``patch:N``,
``full:N``) and fires them on attempts ``1..attempts`` (or
:data:`~repro.runtime.faults.ALWAYS`).  Attempt counting lives in the
upstream itself, so a plan replays identically for any client that
issues the same call sequence — which is exactly what makes the whole
update loop deterministically replayable from a stored plan.
"""

from __future__ import annotations

import datetime
import enum
import hashlib
import time
from dataclasses import dataclass
from typing import Callable

from repro.history.store import VersionStore
from repro.psl.rules import Rule, Section
from repro.runtime.faults import ALWAYS, Fault, FaultPlan

__all__ = [
    "ALWAYS",
    "HEAD_KEY",
    "HeadInfo",
    "SyntheticUpstream",
    "UpstreamError",
    "UpstreamFaultKind",
    "UpstreamTimeout",
    "UpstreamUnreachable",
    "VersionEnvelope",
    "body_checksum",
    "full_body",
    "full_key",
    "parse_full_body",
    "patch_key",
]

HEAD_KEY = "head"


def patch_key(index: int) -> str:
    """The fault-plan / call-log key of one patch fetch."""
    return f"patch:{index}"


def full_key(index: int) -> str:
    """The fault-plan / call-log key of one full-snapshot fetch."""
    return f"full:{index}"


class UpstreamError(RuntimeError):
    """Base class for transport-level upstream failures."""


class UpstreamUnreachable(UpstreamError):
    """The upstream refused the connection (or DNS failed, etc.)."""


class UpstreamTimeout(UpstreamError):
    """The upstream hung past the client's deadline."""


class UpstreamFaultKind(enum.Enum):
    """The injectable upstream failure modes.

    * ``UNREACHABLE`` — raise :class:`UpstreamUnreachable`;
    * ``HANG`` — consume ``hang_seconds`` of (injected) sleep; if that
      meets the client timeout the call raises
      :class:`UpstreamTimeout`, otherwise it is merely slow and then
      succeeds;
    * ``TRUNCATE`` — serve half the body with the checksum of the
      *whole* body (a cut-off download: detectable by checksum);
    * ``CORRUPT_PATCH`` — serve a body whose checksum *matches* but
      whose content cannot apply cleanly (removes a rule that never
      existed), exercising apply-time validation past the checksum;
    * ``BAD_CHECKSUM`` — serve the correct body under a wrong checksum
      (a poisoned metadata channel).
    """

    UNREACHABLE = "unreachable"
    HANG = "hang"
    TRUNCATE = "truncate"
    CORRUPT_PATCH = "corrupt-patch"
    BAD_CHECKSUM = "bad-checksum"


@dataclass(frozen=True, slots=True)
class HeadInfo:
    """What a poll of the upstream tip returns."""

    index: int
    date: datetime.date
    commit: str
    rule_count: int
    set_digest: int


@dataclass(frozen=True, slots=True)
class VersionEnvelope:
    """One fetched version: declared metadata + body + checksum.

    ``set_digest`` and ``rule_count`` describe the *post-apply* rule
    set, which is what lets the watcher verify an apply before
    publishing anything.  ``checksum`` is SHA-256 hex over the UTF-8
    body.
    """

    index: int
    date: datetime.date
    commit: str
    rule_count: int
    set_digest: int
    kind: str  # "patch" | "full"
    body: str
    checksum: str


def body_checksum(body: str) -> str:
    """The envelope checksum: SHA-256 hex over the UTF-8 body."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


FULL_HEADER = "# psl-full v1"


def full_body(rules: frozenset[Rule]) -> str:
    """Serialize a complete rule set as a canonical full-snapshot body.

    One ``section:rule`` line per rule, sorted — the same canonical
    ordering the patch format uses, so equal rule sets always produce
    byte-identical bodies (and therefore equal checksums).
    """
    lines = [FULL_HEADER]
    for rule in sorted(rules, key=lambda r: (r.section.value, r.labels)):
        lines.append(f"{rule.section.value}:{rule.text}")
    return "\n".join(lines)


def parse_full_body(text: str) -> frozenset[Rule]:
    """Parse a :func:`full_body` snapshot; raises ValueError when malformed."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != FULL_HEADER:
        raise ValueError("not a psl-full v1 snapshot")
    rules: set[Rule] = set()
    for line in lines[1:]:
        section_name, separator, rule_text = line.partition(":")
        if not separator:
            raise ValueError(f"malformed snapshot line {line!r}")
        try:
            section = Section(section_name)
        except ValueError:
            raise ValueError(f"unknown section {section_name!r}") from None
        rules.add(Rule.parse(rule_text, section=section))
    return frozenset(rules)


class SyntheticUpstream:
    """The version history served as a (faultable) remote endpoint.

    ``published`` bounds which versions are visible: a watcher polling
    :meth:`head` sees the upstream grow as the driver calls
    :meth:`publish_next` / :meth:`advance_to`, which is how tests and
    the soak simulate time passing upstream.

    The injected ``sleep`` callable receives every HANG delay, so a
    test can run an entire hang scenario in zero wall-clock time while
    the soak uses real sleeps.
    """

    def __init__(
        self,
        truth: VersionStore,
        *,
        published: int | None = None,
        plan: FaultPlan | None = None,
        client_timeout: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if len(truth) == 0:
            raise ValueError("upstream truth history is empty")
        if client_timeout <= 0:
            raise ValueError("client_timeout must be positive")
        self._truth = truth
        self._published = len(truth) - 1 if published is None else published
        if not 0 <= self._published < len(truth):
            raise ValueError(f"published index {self._published} out of range")
        self._plan = plan
        self._client_timeout = client_timeout
        self._sleep = sleep
        self._attempts: dict[str, int] = {}
        #: Every call in order, as ``(key, attempt)`` — the replay log.
        self.calls: list[tuple[str, int]] = []

    # -- publication ---------------------------------------------------------

    @property
    def truth(self) -> VersionStore:
        return self._truth

    @property
    def published(self) -> int:
        """Index of the newest *visible* version."""
        return self._published

    def publish_next(self) -> int:
        """Make one more version visible; returns the new head index."""
        if self._published + 1 >= len(self._truth):
            raise ValueError("no unpublished versions remain")
        self._published += 1
        return self._published

    def advance_to(self, index: int) -> int:
        """Publish every version up to ``index`` (monotone only)."""
        if not self._published <= index < len(self._truth):
            raise ValueError(f"cannot advance publication to {index}")
        self._published = index
        return self._published

    # -- fault plumbing ------------------------------------------------------

    def _attempt(self, key: str) -> int:
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        self.calls.append((key, attempt))
        return attempt

    def _transport_fault(self, key: str, attempt: int) -> Fault | None:
        """Apply transport-level faults; returns a body fault to apply later."""
        fault = self._plan.fault_for(key, attempt) if self._plan is not None else None
        if fault is None:
            return None
        if fault.kind is UpstreamFaultKind.UNREACHABLE:
            raise UpstreamUnreachable(f"upstream unreachable: {key} (attempt {attempt})")
        if fault.kind is UpstreamFaultKind.HANG:
            self._sleep(min(fault.hang_seconds, self._client_timeout))
            if fault.hang_seconds >= self._client_timeout:
                raise UpstreamTimeout(
                    f"upstream hung past {self._client_timeout:.1f}s: {key} (attempt {attempt})"
                )
            return None  # merely slow: the response still arrives
        return fault  # a body fault; the caller mangles the envelope

    @staticmethod
    def _mangle(body: str, checksum: str, fault: Fault | None, kind: str) -> tuple[str, str]:
        if fault is None:
            return body, checksum
        if fault.kind is UpstreamFaultKind.TRUNCATE:
            return body[: len(body) // 2], checksum
        if fault.kind is UpstreamFaultKind.BAD_CHECKSUM:
            return body, body_checksum(body + "!corrupted")
        if fault.kind is UpstreamFaultKind.CORRUPT_PATCH:
            poison = (
                "-icann:never-vendored-rule.invalid"
                if kind == "patch"
                else "icann:%%%not a rule%%%"
            )
            corrupted = body + "\n" + poison
            return corrupted, body_checksum(corrupted)
        return body, checksum  # pragma: no cover - future kinds

    # -- the served surface --------------------------------------------------

    def head(self) -> HeadInfo:
        """The newest published version's metadata (the poll target)."""
        attempt = self._attempt(HEAD_KEY)
        self._transport_fault(HEAD_KEY, attempt)
        version = self._truth.version(self._published)
        return HeadInfo(
            index=version.index,
            date=version.date,
            commit=version.commit,
            rule_count=version.rule_count,
            set_digest=version.set_digest,
        )

    def _envelope(self, index: int, kind: str, body: str, fault: Fault | None) -> VersionEnvelope:
        version = self._truth.version(index)
        body, checksum = self._mangle(body, body_checksum(body), fault, kind)
        return VersionEnvelope(
            index=version.index,
            date=version.date,
            commit=version.commit,
            rule_count=version.rule_count,
            set_digest=version.set_digest,
            kind=kind,
            body=body,
            checksum=checksum,
        )

    def _check_visible(self, index: int) -> None:
        if not 0 <= index <= self._published:
            raise UpstreamUnreachable(f"version {index} is not published (head is {self._published})")

    def patch(self, index: int) -> VersionEnvelope:
        """Version ``index`` as a delta patch over version ``index - 1``."""
        self._check_visible(index)
        key = patch_key(index)
        attempt = self._attempt(key)
        fault = self._transport_fault(key, attempt)
        return self._envelope(index, "patch", self._truth.version(index).delta.to_patch(), fault)

    def full(self, index: int) -> VersionEnvelope:
        """The complete rule set at ``index`` (the resync path)."""
        self._check_visible(index)
        key = full_key(index)
        attempt = self._attempt(key)
        fault = self._transport_fault(key, attempt)
        return self._envelope(index, "full", full_body(self._truth.rules_at(index)), fault)
