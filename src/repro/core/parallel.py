"""Worker-pool trace recording — the §VIII-A hot path, parallelised.

Phases 1 and 3 re-execute the program under test hundreds of times, and
every execution is independent by construction (each run gets a fresh
simulated :class:`~repro.gpusim.device.Device`, like a fresh process), so
the recording loop parallelises across a ``ProcessPoolExecutor``.

Two design points keep the parallel pipeline byte-identical to the serial
one:

* **inputs are drawn in the parent** — the pipeline materialises every run
  input from one seeded generator in the serial draw order and dispatches
  *contiguous* chunks of them, so run *i* executes the same input no matter
  how many workers exist, and a run's trace cannot depend on which worker
  executed it (devices are seeded from the static ``DeviceConfig``, never
  from worker state);
* **partial evidence, folded in chunk order** — each worker folds its chunk
  of runs into a partial :class:`~repro.core.evidence.Evidence` (the same
  streaming fold the serial path uses) and ships *that* back instead of
  pickling hundreds of full ``ProgramTrace`` objects; the parent merges the
  partials left-to-right with :meth:`Evidence.merge`, which extends the
  per-run presence vectors in run order and aggregates A-DCFGs with the
  associative :func:`~repro.adcfg.merge.merge_adcfg_into`.

Failures are handled per chunk by a
:class:`~repro.resilience.supervisor.ChunkSupervisor` under the
configuration's :class:`~repro.resilience.retry.RetryPolicy`: a dead worker
or an expired chunk deadline re-dispatches only the affected chunks to a
fresh pool (completed chunks are kept), exhausted chunks degrade to
in-process execution, and every step is recorded as a
:class:`~repro.resilience.events.DegradationEvent` on the returned
:class:`ChunkStats`.  The in-process serial loop remains the reference:
``workers=1``, tiny batches and unpicklable programs (e.g. closure-built
workloads) use it directly, and supervised results are folded in chunk
order so any fault pattern produces bit-identical evidence.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.evidence import Evidence
from repro.errors import ConfigError
from repro.gpusim.device import DeviceConfig
from repro.resilience import events as degradation_events
from repro.resilience.events import DegradationEvent, collecting_degradations
from repro.resilience.faults import FaultPlan, activated
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import ChunkSupervisor
from repro.tracing.recorder import Program, ProgramTrace, TraceRecorder

#: Worker-count specification: a positive int, ``"auto"`` (one worker per
#: available core), or None (serial).
WorkerSpec = Union[int, str, None]


def resolve_workers(workers: WorkerSpec) -> int:
    """Normalise a worker spec to a concrete positive worker count."""
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(workers)
        except ValueError:
            raise ConfigError(
                f"workers must be a positive int or 'auto', got {workers!r}"
            ) from None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be a positive int or 'auto', got {workers!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def chunk_slices(n: int, chunks: int) -> List[slice]:
    """Split ``range(n)`` into at most *chunks* contiguous balanced slices.

    Deterministic: depends only on ``(n, chunks)``.  Earlier slices get the
    remainder, matching ``np.array_split`` semantics.
    """
    if n < 0:
        raise ConfigError("n must be >= 0")
    if chunks < 1:
        raise ConfigError("chunks must be >= 1")
    chunks = min(chunks, n) or 1
    base, extra = divmod(n, chunks)
    slices = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        slices.append(slice(start, start + size))
        start += size
    return slices


@dataclass
class ChunkStats:
    """Cost accounting for one recorded chunk of runs.

    ``trace_seconds_total`` sums per-run recording cost (CPU-side wall time
    of each ``record`` call — with workers these overlap, so the sum can
    exceed the enclosing phase's wall clock); ``evidence_seconds`` is the
    time spent folding traces into evidence.  ``degradations`` carries the
    structured record of every fault this batch survived (worker retries,
    cohort → warp fallbacks, ...), wherever it occurred.
    """

    trace_count: int = 0
    trace_bytes_total: int = 0
    trace_seconds_total: float = 0.0
    evidence_seconds: float = 0.0
    #: replica-batching counters (see repro.tracing.replica.ReplicaStats)
    replica_dedup_runs: int = 0
    replica_fused_groups: int = 0
    replica_fused_launches: int = 0
    replica_fallback_launches: int = 0
    degradations: List[DegradationEvent] = field(default_factory=list)

    def add_trace(self, trace: ProgramTrace, seconds: float,
                  count: int = 1) -> None:
        self.trace_count += count
        self.trace_bytes_total += trace.trace_size_bytes() * count
        self.trace_seconds_total += seconds * count

    def add_folded(self, folded, seconds: float) -> None:
        """Account one batch recorded straight into evidence
        (:class:`~repro.tracing.replica.FoldedBatch`) over *seconds*."""
        self.trace_count += folded.runs
        self.trace_bytes_total += folded.trace_bytes
        self.trace_seconds_total += seconds - folded.evidence_seconds
        self.evidence_seconds += folded.evidence_seconds
        self.add_replica_stats(folded.stats)

    def add_replica_stats(self, replica_stats) -> None:
        self.replica_dedup_runs += replica_stats.dedup_runs
        self.replica_fused_groups += replica_stats.fused_groups
        self.replica_fused_launches += replica_stats.fused_launches
        self.replica_fallback_launches += replica_stats.fallback_launches

    def absorb(self, other: "ChunkStats") -> None:
        self.trace_count += other.trace_count
        self.trace_bytes_total += other.trace_bytes_total
        self.trace_seconds_total += other.trace_seconds_total
        self.evidence_seconds += other.evidence_seconds
        self.replica_dedup_runs += other.replica_dedup_runs
        self.replica_fused_groups += other.replica_fused_groups
        self.replica_fused_launches += other.replica_fused_launches
        self.replica_fallback_launches += other.replica_fallback_launches
        self.degradations.extend(other.degradations)


def _replica_batches(values: Sequence[object],
                     replica_batch) -> Optional[List[Sequence[object]]]:
    """Partition *values* into replica batches (None = serial reference).

    ``True`` batches the whole chunk; an int ``n >= 2`` caps batches at
    *n* runs; ``False`` / ``None`` / ``n <= 1`` keep the per-run loop.
    """
    if len(values) <= 1:
        return None
    if replica_batch is True:
        size = len(values)
    elif isinstance(replica_batch, bool) or replica_batch is None:
        return None
    elif isinstance(replica_batch, int) and replica_batch >= 2:
        size = replica_batch
    else:
        return None
    return [values[start:start + size]
            for start in range(0, len(values), size)]


def _record_grouped_batches(
        program: Program, device_config: Optional[DeviceConfig],
        batches: List[Sequence[object]], columnar: bool, cohort: bool,
        dedup: bool,
        stats: ChunkStats) -> List[Tuple[ProgramTrace, int, float]]:
    """Record replica batches; yields ``(trace, count, per_run_seconds)``."""
    from repro.tracing.replica import record_grouped

    out: List[Tuple[ProgramTrace, int, float]] = []
    for batch in batches:
        started = time.perf_counter()
        groups, replica_stats = record_grouped(
            program, batch, device_config=device_config,
            columnar=columnar, cohort=cohort, dedup=dedup)
        elapsed = time.perf_counter() - started
        stats.add_replica_stats(replica_stats)
        total_runs = sum(count for _trace, count in groups)
        per_run = elapsed / total_runs if total_runs else 0.0
        out.extend((trace, count, per_run) for trace, count in groups)
    return out


def _record_trace_chunk(
        program: Program, device_config: Optional[DeviceConfig],
        values: Sequence[object], buffered: bool, columnar: bool,
        cohort: bool, replica_batch=False, replica_dedup: bool = False,
) -> Tuple[List[ProgramTrace], ChunkStats]:
    """Worker body for phase 1: record and return the raw traces."""
    stats = ChunkStats()
    traces: List[ProgramTrace] = []
    batches = None if buffered else _replica_batches(values, replica_batch)
    if batches is not None:
        for trace, count, per_run in _record_grouped_batches(
                program, device_config, batches, columnar, cohort,
                replica_dedup, stats):
            stats.add_trace(trace, per_run, count=count)
            # pre-compute the digest so the phase-2 grouping in the parent
            # reuses it instead of re-serialising every A-DCFG
            trace.signature()
            traces.extend([trace] * count)
        return traces, stats
    recorder = TraceRecorder(device_config=device_config, buffered=buffered,
                             columnar=columnar, cohort=cohort)
    for value in values:
        started = time.perf_counter()
        trace = recorder.record(program, value)
        stats.add_trace(trace, time.perf_counter() - started)
        # pre-compute the digest worker-side so the phase-2 grouping in the
        # parent reuses it instead of re-serialising every A-DCFG
        trace.signature()
        traces.append(trace)
    return traces, stats


def _record_evidence_chunk(
        program: Program, device_config: Optional[DeviceConfig],
        values: Sequence[object], keep_per_run: bool, buffered: bool,
        columnar: bool, cohort: bool, replica_batch=False,
        replica_dedup: bool = False,
) -> Tuple[Evidence, ChunkStats]:
    """Worker body for phase 3: fold the chunk's runs into partial evidence.

    Each trace is dropped as soon as it is merged, so worker peak RAM is one
    trace plus the growing partial evidence — the streaming fold that keeps
    the Table IV memory column flat at high run counts.  Replica batches
    build no per-run trace at all (:func:`repro.tracing.replica.fold_grouped`)
    unless the evidence keeps per-run graphs.
    """
    stats = ChunkStats()
    evidence = Evidence(keep_per_run=keep_per_run)
    batches = None if buffered else _replica_batches(values, replica_batch)
    if batches is not None and not keep_per_run:
        from repro.tracing.replica import fold_grouped

        for batch in batches:
            started = time.perf_counter()
            folded = fold_grouped(program, batch, evidence,
                                  device_config=device_config,
                                  columnar=columnar, cohort=cohort,
                                  dedup=replica_dedup)
            stats.add_folded(folded, time.perf_counter() - started)
        return evidence, stats
    if batches is not None:
        for trace, count, per_run in _record_grouped_batches(
                program, device_config, batches, columnar, cohort,
                replica_dedup, stats):
            stats.add_trace(trace, per_run, count=count)
            folded = time.perf_counter()
            evidence.add_segment(trace, count)
            stats.evidence_seconds += time.perf_counter() - folded
        return evidence, stats
    recorder = TraceRecorder(device_config=device_config, buffered=buffered,
                             columnar=columnar, cohort=cohort)
    for value in values:
        started = time.perf_counter()
        trace = recorder.record(program, value)
        recorded = time.perf_counter()
        stats.add_trace(trace, recorded - started)
        evidence.add_trace(trace)
        stats.evidence_seconds += time.perf_counter() - recorded
    return evidence, stats


class TraceRecordingPool:
    """Records batches of runs serially or across a supervised process pool.

    The pool is created per batch (``ProcessPoolExecutor`` startup is
    negligible next to hundreds of instrumented executions) and the serial
    in-process path is the reference: for any picklable program the pooled
    result is identical under any fault pattern, and unpicklable programs
    silently use the serial path so callers never have to care.

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) governs how
    worker faults are survived; ``fault_plan`` deterministically injects
    them (see :mod:`repro.resilience.faults`); ``seed`` feeds the
    deterministic backoff jitter.
    """

    def __init__(self, program: Program,
                 device_config: Optional[DeviceConfig] = None,
                 workers: WorkerSpec = 1, buffered: bool = False,
                 columnar: bool = True, cohort: bool = True, *,
                 replica_batch=False, replica_dedup: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 seed: int = 0) -> None:
        self.program = program
        self.device_config = device_config
        self.workers = resolve_workers(workers)
        self.buffered = buffered
        self.columnar = columnar
        self.cohort = cohort
        self.replica_batch = replica_batch
        self.replica_dedup = replica_dedup
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.seed = seed

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def record_traces(self, values: Sequence[object]
                      ) -> Tuple[List[ProgramTrace], ChunkStats]:
        """Record one trace per value (phase 1: traces are kept)."""
        with collecting_degradations() as log:
            chunks = self._run_chunks(_record_trace_chunk, values,
                                      (self.buffered, self.columnar,
                                       self.cohort, self.replica_batch,
                                       self.replica_dedup))
        traces: List[ProgramTrace] = []
        stats = ChunkStats()
        for chunk_traces, chunk_stats in chunks:
            traces.extend(chunk_traces)
            stats.absorb(chunk_stats)
        stats.degradations.extend(log.events)
        return traces, stats

    def record_evidence(self, values: Sequence[object],
                        keep_per_run: bool = False
                        ) -> Tuple[Evidence, ChunkStats]:
        """Record runs and fold them straight into one evidence (phase 3)."""
        with collecting_degradations() as log:
            chunks = self._run_chunks(_record_evidence_chunk, values,
                                      (keep_per_run, self.buffered,
                                       self.columnar, self.cohort,
                                       self.replica_batch,
                                       self.replica_dedup))
        evidence: Optional[Evidence] = None
        stats = ChunkStats()
        for chunk_evidence, chunk_stats in chunks:
            stats.absorb(chunk_stats)
            if evidence is None:
                evidence = chunk_evidence
            else:
                merge_started = time.perf_counter()
                evidence.merge(chunk_evidence)
                stats.evidence_seconds += time.perf_counter() - merge_started
        stats.degradations.extend(log.events)
        return evidence if evidence is not None else Evidence(
            keep_per_run=keep_per_run), stats

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _effective_workers(self, n_values: int) -> int:
        workers = min(self.workers, n_values)
        if workers <= 1:
            return 1
        if not self._payload_picklable():
            return 1
        return workers

    def _payload_picklable(self) -> bool:
        try:
            pickle.dumps((self.program, self.device_config))
        except Exception:
            return False
        return True

    def _run_chunks(self, worker_fn, values: Sequence[object],
                    extra_args: Tuple) -> List[Tuple]:
        values = list(values)
        workers = self._effective_workers(len(values))
        if workers <= 1:
            # the in-process reference path; device-level fault kinds
            # (cohort violations, batch-fold errors) still apply so the
            # degradation ladder is exercised at any worker count
            with activated(self.fault_plan, chunk_index=0, attempt=0,
                           in_worker=False):
                return [worker_fn(self.program, self.device_config, values,
                                  *extra_args)]
        slices = chunk_slices(len(values), workers)
        supervisor = ChunkSupervisor(policy=self.retry, seed=self.seed,
                                     fault_plan=self.fault_plan)
        outcomes = supervisor.run(
            worker_fn,
            [(self.program, self.device_config, values[s], *extra_args)
             for s in slices])
        # outcomes arrive in chunk (= run) order whatever the completion
        # order, so downstream folds see runs exactly as the serial loop
        return outcomes


# re-exported for callers that want to observe degradations directly
record_degradation = degradation_events.record_degradation
