"""Structured degradation records and their process-local collection point.

Every time the pipeline survives a fault by taking a slower-but-equivalent
path — pool → serial, cohort → warp, columnar → object, store blob →
re-record — it appends one :class:`DegradationEvent` to the active
:class:`DegradationLog`.  Events are plain picklable dataclasses: worker
processes collect them locally and ship them back inside
:class:`~repro.core.parallel.ChunkStats`, the parent folds them into
:class:`~repro.core.pipeline.PhaseStats`, and they surface on
:class:`~repro.core.pipeline.OwlResult` (and, from the CLI, in the
``--degradation-log`` JSON artifact).

The collection point is process-local and nestable, mirroring
:mod:`repro.profiling`: deep layers (the device, the trace monitor, the
store) call :func:`record_degradation` without threading a log through
every constructor, and whoever owns the enclosing scope drains it with
:func:`collecting_degradations`.  With no collector installed the call is
a no-op, so the tolerant paths cost nothing on the happy path.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Degradation ladder rungs (``kind`` values).
POOL_RETRY = "pool_retry"
POOL_TO_SERIAL = "pool_to_serial"
CHUNK_TIMEOUT = "chunk_timeout"
COHORT_TO_WARP = "cohort_to_warp"
REPLICA_TO_RUN = "replica_to_run"
COLUMNAR_TO_OBJECT = "columnar_to_object"
STORE_QUARANTINE = "store_quarantine"
#: fleet-level rungs (the detection service's lifted ladder): a worker
#: process died or went silent past its lease, its leased units were
#: re-queued, and a unit that exhausted its fleet attempts ran in the
#: scheduler process instead
WORKER_LOST = "worker_lost"
UNIT_REQUEUED = "unit_requeued"
FLEET_TO_LOCAL = "fleet_to_local"


@dataclass
class DegradationEvent:
    """One survived fault: what failed, where, and what path replaced it.

    ``kind`` is a rung of the degradation ladder (see the module constants),
    ``subsystem`` names the layer that degraded (``pool`` / ``cohort`` /
    ``monitor`` / ``store``, …), ``reason`` is the one-line human cause, and
    ``context`` carries the machine-readable coordinates (chunk index,
    attempt number, launch ordinal, store key, ...).
    """

    kind: str
    subsystem: str
    reason: str
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "subsystem": self.subsystem,
                "reason": self.reason, "context": dict(self.context)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DegradationEvent":
        return cls(kind=str(data["kind"]), subsystem=str(data["subsystem"]),
                   reason=str(data["reason"]),
                   context=dict(data.get("context", {})))  # type: ignore

    def render(self) -> str:
        coords = ", ".join(f"{key}={value}"
                           for key, value in sorted(self.context.items()))
        suffix = f" ({coords})" if coords else ""
        return f"[{self.subsystem}] {self.kind}: {self.reason}{suffix}"


class DegradationLog:
    """An append-only, in-order list of degradation events."""

    def __init__(self) -> None:
        self.events: List[DegradationEvent] = []

    def record(self, event: DegradationEvent) -> None:
        self.events.append(event)

    def extend(self, events) -> None:
        self.events.extend(events)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def to_list(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[DegradationEvent]:
        return iter(self.events)


_active: List[DegradationLog] = []


def active_log() -> Optional[DegradationLog]:
    """The innermost installed collector, if any."""
    return _active[-1] if _active else None


def record_degradation(kind: str, subsystem: str, reason: str,
                       **context) -> DegradationEvent:
    """Record one survived fault on the active log (no-op without one)."""
    event = DegradationEvent(kind=kind, subsystem=subsystem, reason=reason,
                             context=context)
    log = active_log()
    if log is not None:
        log.record(event)
    return event


@contextmanager
def collecting_degradations() -> Iterator[DegradationLog]:
    """Install a fresh collector for the duration of the block.

    Nested collectors shadow outer ones; on exit the collected events are
    *also* propagated to the enclosing collector (if any), so an outer
    scope always sees the full picture.
    """
    log = DegradationLog()
    _active.append(log)
    try:
        yield log
    finally:
        _active.pop()
        outer = active_log()
        if outer is not None:
            outer.extend(log.events)
