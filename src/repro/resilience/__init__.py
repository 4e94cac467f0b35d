"""Fault tolerance for long-running Owl campaigns.

A §VIII campaign is ~200 instrumented re-executions per program; at
production scale those runs cross process pools, speculative execution
engines and a persistent store, any of which can fail mid-flight.  This
package makes every such failure *recoverable along a degradation ladder*
instead of fatal, while preserving the pipeline's bit-identity contract —
a degraded campaign produces the same report bytes as a healthy one:

* **worker supervision** (:mod:`repro.resilience.supervisor`) — per-chunk
  retry with deterministic backoff under a :class:`RetryPolicy`; failed
  chunks are re-dispatched to fresh workers or degraded to in-process
  execution while completed chunks are kept (pool → serial);
* **graceful degradation** (:mod:`repro.resilience.events`) — cohort
  launches that leave the race-free envelope re-execute on the per-warp
  reference engine (cohort → warp), and batch-fold errors replay each
  warp's memory batch through the per-event fold (columnar → object), each
  recorded as a structured :class:`DegradationEvent`;
* **store self-healing** — ``TraceStore.verify(repair=True)`` quarantines
  corrupt blobs, and the campaign engine transparently re-records what was
  lost;
* **fault injection** (:mod:`repro.resilience.faults`) — a deterministic
  harness (``OwlConfig(fault_plan=...)``, ``owl run --inject ...``) that
  crashes workers, times out chunks, flips blob bits and violates the
  cohort envelope on demand, so every degradation path is CI-testable.
"""

from repro.resilience.events import (
    DegradationEvent,
    DegradationLog,
    collecting_degradations,
    record_degradation,
)
from repro.resilience.faults import FaultError, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import ChunkFailure, ChunkSupervisor

__all__ = [
    "ChunkFailure",
    "ChunkSupervisor",
    "DegradationEvent",
    "DegradationLog",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "collecting_degradations",
    "record_degradation",
]
