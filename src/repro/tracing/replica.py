"""Replica-cohort batching: record many runs of one program in one pass.

Owl's differential design (§VII) re-executes the same program ~100 times
per input class.  After the warp-cohort engine made a *single* execution
cheap, the per-run Python overhead (one device, one runtime, one pass per
run) became the recording bottleneck.  This module removes it in two
layers:

1. **Deduplication** — on a deterministic device (fixed seed, or ASLR and
   schedule shuffling both off) equal inputs produce byte-identical
   traces, so the ~100 fixed-input repetitions collapse to *one* recorded
   trace with a repetition count (:func:`group_values`).

2. **Replica fusion** — the remaining *distinct* inputs (the random side)
   are executed as concurrent sessions whose kernel launches are fused
   into one mega cohort: R replicas of a G-warp launch run as the extra
   rows of an ``(R*G, 32)`` lane grid (:class:`_ReplicaCohortEngine`).
   Each replica owns its own device, memory and event monitor; only the
   NumPy interpretation of the kernel body is shared.  Divergent control
   flow between replicas is handled by the cohort engine's existing
   sub-cohort splitting + :class:`~repro.gpusim.memory.WriteJournal`
   rollback.  The finished launch is folded once, straight from the
   lane grid's records, for every member
   (:func:`~repro.adcfg.builder.fold_lane_grid`) — the graphs each
   member's monitor would fold from its own per-warp event stream, so
   evidence, store fingerprints and degradation ladders are untouched.
   :meth:`CohortContext.replay_events` re-expands those per-run streams
   only on the object (``columnar=False``) reference path, for a kernel
   with a planned ``batch_fold_error`` (the columnar → object rung), and
   for a launch the fold declines.

Phase 1 needs every run's trace (:func:`record_grouped`).  Phase 3 needs
only each side's evidence, so :func:`fold_grouped` builds no per-run
trace: it keeps each fused launch's fold and, once the batch is done,
folds each *segment* — consecutive runs with one kernel sequence — into
the evidence in one step (:meth:`~repro.core.evidence.Evidence.add_segment`),
each kernel position's graph summed across the segment's runs in NumPy
before any dict is built.  The result is the evidence the per-run fold
builds, byte for byte.

Equivalence envelope
--------------------
Programs under test must be deterministic functions of ``(rt, value)``
that do not mutate their input value — the same contract the store's
content-addressed caching and the ``[fixed_input] * N`` evidence protocol
already assume.  Anything the engine cannot fuse (incompatible launch
geometry, injected faults, envelope violations, program exceptions) falls
back down the degradation ladder: fused → per-replica
(:data:`~repro.resilience.events.REPLICA_TO_RUN`) → plain serial
re-recording of the whole batch, each rung byte-identical by contract.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import profiling
from repro.adcfg.builder import LaneGridFold, ReplicaLayout, fold_lane_grid
from repro.adcfg.graph import ADCFG
from repro.adcfg.serialize import adcfg_size_bytes
from repro.errors import CohortEnvelopeError
from repro.gpusim.cohort import CohortContext, CohortSplit, ReplicaBuffer
from repro.gpusim.context import SimtDivergenceError
from repro.gpusim.device import Device, DeviceConfig, LaunchError
from repro.gpusim.events import KernelBeginEvent, KernelEndEvent
from repro.gpusim.kernel import Kernel, LaunchConfig
from repro.gpusim.memory import DeviceBuffer, MemorySpace, WriteJournal
from repro.host.callstack import current_stack_depth
from repro.host.runtime import CudaRuntime
from repro.resilience import events as resilience_events
from repro.resilience import faults as fault_injection
from repro.tracing.channel import Channel
from repro.tracing.monitor import WarpTraceMonitor
from repro.tracing.recorder import (
    Program,
    ProgramTrace,
    RecordingError,
    TraceRecorder,
    KernelInvocation,
    _SessionTracer,
)

if TYPE_CHECKING:
    from repro.core.evidence import Evidence


class _ReplicaAbort(BaseException):
    """Raised inside a session thread to unwind a parked program.

    Derives from ``BaseException`` so even a program with a blanket
    ``except Exception`` cannot swallow the shutdown.
    """


class _BatchAbandoned(Exception):
    """The replica batch cannot continue; re-record every run serially."""


@dataclass
class ReplicaStats:
    """Counters describing how one batch of runs was executed."""

    #: runs that were never executed because an earlier identical run's
    #: trace was reused (deterministic-device deduplication)
    dedup_runs: int = 0
    #: fused mega-cohort executions (each covers several replica launches)
    fused_groups: int = 0
    #: member launches executed inside a fused mega cohort
    fused_launches: int = 0
    #: member launches that fell back to single (per-replica) execution
    fallback_launches: int = 0

    def merge(self, other: "ReplicaStats") -> None:
        self.dedup_runs += other.dedup_runs
        self.fused_groups += other.fused_groups
        self.fused_launches += other.fused_launches
        self.fallback_launches += other.fallback_launches


@dataclass
class FoldedBatch:
    """One batch of runs recorded straight into evidence (:func:`fold_grouped`)."""

    runs: int
    #: serialised size of the runs' traces (Table IV), each run counted
    trace_bytes: int
    #: seconds spent inside the evidence's folds
    evidence_seconds: float
    stats: ReplicaStats


# ----------------------------------------------------------------------
# deterministic-device deduplication
# ----------------------------------------------------------------------

def device_is_deterministic(config: DeviceConfig) -> bool:
    """True when equal inputs are guaranteed byte-identical traces.

    A fixed seed pins both the ASLR layout draws and the schedule
    shuffles; with neither randomisation enabled the device is
    deterministic regardless of seed.
    """
    if config.seed is not None:
        return True
    return not config.aslr and not config.shuffle_schedule


def _values_equal(a: object, b: object) -> bool:
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        return (a_arr.dtype == b_arr.dtype and a_arr.shape == b_arr.shape
                and bool(np.array_equal(a_arr, b_arr)))
    if type(a) is not type(b):
        return False
    try:
        return bool(a == b)
    except Exception:
        return False


def group_values(values: Sequence[object],
                 deterministic: bool) -> List[Tuple[object, int]]:
    """Collapse consecutive equal values into ``(value, count)`` groups.

    On a non-deterministic device every run is its own group: equal
    inputs may legitimately produce different traces there, so nothing
    may be deduplicated.
    """
    groups: List[Tuple[object, int]] = []
    for value in values:
        if (deterministic and groups
                and _values_equal(groups[-1][0], value)):
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((value, 1))
    return groups


# ----------------------------------------------------------------------
# one replica session: a full recorder stack parked at each launch
# ----------------------------------------------------------------------

class _ReplicaDevice(Device):
    """Device whose launches park the program thread for fused execution.

    Geometry validation and the schedule draw happen *before* parking, in
    the program thread, so invalid launches raise exactly where the
    serial path raises and the device RNG stream matches serial runs.
    """

    def __init__(self, session: "_ReplicaSession", config: DeviceConfig,
                 columnar: bool, cohort: bool) -> None:
        super().__init__(config, columnar=columnar, cohort=cohort)
        self._session = session

    def launch(self, kern: Kernel, grid, block, *args) -> None:
        launch = LaunchConfig.create(grid, block)
        if launch.threads_per_block > self.config.max_threads_per_block:
            raise LaunchError(
                f"{launch.threads_per_block} threads/block exceeds device "
                f"limit {self.config.max_threads_per_block}")
        schedule = [(b, w)
                    for b in range(launch.num_blocks)
                    for w in range(launch.warps_per_block)]
        if self.config.shuffle_schedule:
            self._rng.shuffle(schedule)
        self._session.park_at_launch(kern, grid, block, args, launch,
                                     schedule)


@dataclass
class _PendingLaunch:
    """One parked launch awaiting coordinated execution."""

    kern: Kernel
    grid: object
    block: object
    args: tuple
    launch: LaunchConfig
    schedule: list


class _ReplicaSession:
    """One replica's full recording stack, driven launch-by-launch.

    The program runs on a daemon thread that parks at every kernel
    launch; the coordinator (the engine, on the caller's thread) executes
    parked launches — fused with compatible peers when possible — and
    resumes the thread.  Exactly one of the two is ever running, so the
    interleaving is deterministic.  All wiring (tracer, monitor, channel,
    call-stack anchor) mirrors :meth:`TraceRecorder.record` exactly.
    """

    def __init__(self, program: Program, value: object,
                 config: DeviceConfig, columnar: bool, cohort: bool) -> None:
        self.value = value
        self._program = program
        self.device = _ReplicaDevice(self, config, columnar, cohort)
        self.tracer = _SessionTracer(self.device.memory)
        self.monitor = WarpTraceMonitor(
            normalizer=lambda addr: self.tracer.normalize(addr).as_key(),
            batch_normalizer=self.tracer.normalize_keys,
            key_id_normalizer=self.tracer.normalize_key_ids)
        self._channel = Channel(sink=self.monitor.on_event)
        self.tracer.bind_monitor(self.monitor)
        self.device.subscribe(self._channel.send)
        self.runtime = CudaRuntime(self.device)
        self.runtime.attach_tracer(self.tracer)

        self.pending: Optional[_PendingLaunch] = None
        #: launch position -> (its fused launch's fold, this replica's
        #: slot in it), for launches whose graph the monitor never built,
        #: and those graphs' serialised bytes
        self.folded: Dict[int, Tuple[LaneGridFold, int]] = {}
        self.folded_bytes = 0
        self.finished = False
        self.error: Optional[BaseException] = None
        self.abort = False
        self._resume = threading.Event()
        self._parked = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    # -- program-thread side -------------------------------------------

    def _run(self) -> None:
        self._resume.wait()
        self._resume.clear()
        try:
            if not self.abort:
                # anchor inside the thread: raw[anchor:] then holds only
                # program frames, exactly as in TraceRecorder.record
                self.runtime.call_stack_anchor = current_stack_depth()
                self._program(self.runtime, self.value)
        except _ReplicaAbort:
            pass
        except BaseException as error:  # surfaced by the coordinator
            self.error = error
        finally:
            self.runtime.detach_tracer()
            self.device.unsubscribe(self._channel.send)
            self.finished = True
            self._parked.set()

    def park_at_launch(self, kern: Kernel, grid, block, args,
                       launch: LaunchConfig, schedule: list) -> None:
        self.pending = _PendingLaunch(kern=kern, grid=grid, block=block,
                                      args=args, launch=launch,
                                      schedule=schedule)
        self._parked.set()
        self._resume.wait()
        self._resume.clear()
        if self.abort:
            raise _ReplicaAbort()

    # -- coordinator side ----------------------------------------------

    def step(self) -> None:
        """Resume the program thread until its next park (or completion)."""
        self.pending = None
        self._resume.set()
        self._parked.wait()
        self._parked.clear()

    def shutdown(self) -> None:
        if not self.finished:
            self.abort = True
            self._resume.set()
        self._thread.join(timeout=30.0)

    def finish_graphs(self) -> List[ADCFG]:
        """The monitor's graph of every launch, checked against the host's
        launches (a folded launch's graph is an empty stand-in)."""
        graphs = self.monitor.finish()
        launches = self.tracer.launch_records
        if len(graphs) != len(launches):
            raise RecordingError(
                f"host saw {len(launches)} launches but device produced "
                f"{len(graphs)} kernel traces")
        return graphs

    def trace(self, graphs: Sequence[ADCFG]) -> ProgramTrace:
        """Join host and device observations, as the serial recorder
        does, with *graphs* as the launches' graphs."""
        launches = self.tracer.launch_records
        invocations = [
            KernelInvocation(identity=launch.identity,
                             kernel_name=launch.kernel_name, seq=launch.seq,
                             grid=launch.grid, block=launch.block,
                             adcfg=graph)
            for launch, graph in zip(launches, graphs)
        ]
        return ProgramTrace(invocations=invocations,
                            malloc_records=list(self.tracer.malloc_records),
                            launch_records=list(launches))

    def trace_bytes(self, graphs: List[ADCFG]) -> int:
        """:meth:`ProgramTrace.trace_size_bytes` of :meth:`trace`, without
        building the folded launches' graphs."""
        return (sum(r.size_bytes() for r in self.tracer.malloc_records)
                + sum(r.size_bytes() for r in self.tracer.launch_records)
                + self.folded_bytes
                + sum(adcfg_size_bytes(graph)
                      for position, graph in enumerate(graphs)
                      if position not in self.folded))


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _alias_pattern(args: tuple) -> tuple:
    """Buffer-aliasing fingerprint of a launch's argument tuple."""
    seen: Dict[int, int] = {}
    pattern = []
    for index, arg in enumerate(args):
        if isinstance(arg, DeviceBuffer):
            pattern.append(seen.setdefault(id(arg), index))
        else:
            pattern.append(-1)
    return tuple(pattern)


class _ReplicaCohortEngine:
    """Runs several replica sessions, fusing compatible parked launches.

    With ``keep_folds`` a folded launch's graphs are never built per
    member: each session keeps the launch's fold for :meth:`fold_batch`.
    """

    def __init__(self, config: DeviceConfig, columnar: bool,
                 cohort: bool, keep_folds: bool = False) -> None:
        self._config = config
        self._columnar = columnar
        self._cohort = cohort
        self._keep_folds = keep_folds
        self.stats = ReplicaStats()

    def record_batch(self, program: Program,
                     values: Sequence[object]) -> List[ProgramTrace]:
        sessions = self._run(program, values)
        try:
            return [s.trace(s.finish_graphs()) for s in sessions]
        except BaseException as error:
            raise _BatchAbandoned(str(error)) from error

    def fold_batch(self, program: Program, values: Sequence[object],
                   counts: Sequence[int],
                   evidence: "Evidence") -> Tuple[int, float]:
        """Record *values* into *evidence*, value ``i`` standing for
        ``counts[i]`` runs; returns the runs' trace bytes and the seconds
        spent in the evidence's folds.

        *evidence* is untouched until every session has finished and its
        launches are accounted for, so an abandoned batch can still be
        re-recorded serially.
        """
        sessions = self._run(program, values)
        try:
            try:
                graphs = [s.finish_graphs() for s in sessions]
            except BaseException as error:
                raise _BatchAbandoned(str(error)) from error
            with _charged_to_fold():
                trace_bytes = sum(s.trace_bytes(session_graphs) * count
                                  for s, session_graphs, count
                                  in zip(sessions, graphs, counts))
                segments = _segments(sessions, graphs, counts)
            seconds = 0.0
            for first, runs, rest in segments:
                started = perf_counter()
                evidence.add_segment(first, runs, rest)
                seconds += perf_counter() - started
            return trace_bytes, seconds
        finally:
            # sessions sit in reference cycles (device <-> session) that
            # only the cyclic collector frees: let the folds' tables go now
            for session in sessions:
                session.folded.clear()

    def _run(self, program: Program,
             values: Sequence[object]) -> List["_ReplicaSession"]:
        """Run one session per value to completion, or abandon the batch."""
        sessions = [_ReplicaSession(program, value, self._config,
                                    self._columnar, self._cohort)
                    for value in values]
        try:
            self._drive(sessions)
            failed = next((s for s in sessions if s.error is not None),
                          None)
            if failed is not None:
                raise _BatchAbandoned(
                    f"program raised {type(failed.error).__name__}: "
                    f"{failed.error}")
        except BaseException as error:
            # every abandon path releases the program threads still parked
            self._abort(sessions)
            if isinstance(error, _BatchAbandoned):
                raise
            raise _BatchAbandoned(str(error)) from error
        return sessions

    # -- scheduling ----------------------------------------------------

    def _drive(self, sessions: List["_ReplicaSession"]) -> None:
        for session in sessions:
            session.step()
        while True:
            if any(s.error is not None for s in sessions):
                raise _BatchAbandoned("a replica session raised")
            waiting = [s for s in sessions if not s.finished]
            if not waiting:
                return
            for group in self._compatible_groups(waiting):
                self._execute_group(group)
            for session in waiting:
                session.step()

    def _compatible_groups(
            self, waiting: List["_ReplicaSession"]
    ) -> List[List["_ReplicaSession"]]:
        groups: List[List[_ReplicaSession]] = []
        for session in waiting:
            for group in groups:
                if self._compatible(group[0], session):
                    group.append(session)
                    break
            else:
                groups.append([session])
        return groups

    def _compatible(self, a: "_ReplicaSession",
                    b: "_ReplicaSession") -> bool:
        pa, pb = a.pending, b.pending
        if pa.kern is not pb.kern or pa.launch != pb.launch:
            return False
        if pa.schedule != pb.schedule:
            return False
        if len(pa.args) != len(pb.args):
            return False
        if _alias_pattern(pa.args) != _alias_pattern(pb.args):
            return False
        for arg_a, arg_b in zip(pa.args, pb.args):
            if isinstance(arg_a, DeviceBuffer):
                if not isinstance(arg_b, DeviceBuffer):
                    return False
                if (arg_a.data.dtype != arg_b.data.dtype
                        or arg_a.data.shape != arg_b.data.shape
                        or arg_a.space is not arg_b.space):
                    return False
            else:
                if isinstance(arg_b, DeviceBuffer):
                    return False
                if not _values_equal(arg_a, arg_b):
                    return False
        return True

    # -- execution -----------------------------------------------------

    def _execute_group(self, group: List["_ReplicaSession"]) -> None:
        pending = group[0].pending
        kern = pending.kern
        fusible = (len(group) > 1 and self._cohort and kern.cohort
                   and len(group) * pending.launch.total_warps > 1)
        if fusible:
            for session in group:
                ordinal = session.device.launch_count
                fault = fault_injection.replica_violation_for(ordinal)
                if fault is not None:
                    resilience_events.record_degradation(
                        resilience_events.REPLICA_TO_RUN, "replica",
                        f"injected replica fusion violation for launch "
                        f"{ordinal} of {kern.name!r} ({fault.render()})",
                        kernel=kern.name, launch=ordinal)
                    fusible = False
                    break
                if fault_injection.cohort_violation_for(ordinal) is not None:
                    # run the members singly so each one's cohort engine
                    # trips the injected violation and records the same
                    # cohort → warp degradation as a serial run would
                    fusible = False
                    break
        if not fusible:
            for session in group:
                self._execute_single(session)
            return
        shared_stores: List[dict] = [{} for _ in group]
        try:
            self._execute_fused(group, shared_stores)
        except (CohortEnvelopeError, SimtDivergenceError) as error:
            resilience_events.record_degradation(
                resilience_events.REPLICA_TO_RUN, "replica", str(error),
                kernel=kern.name, launch=group[0].device.launch_count)
            for slot, session in enumerate(group):
                self._execute_single(session,
                                     shared_store=shared_stores[slot])

    def _execute_single(self, session: "_ReplicaSession",
                        shared_store: Optional[dict] = None) -> None:
        pending = session.pending
        session.device.launch_scheduled(
            pending.kern, pending.grid, pending.block, pending.args,
            schedule=pending.schedule, shared_store=shared_store)
        self.stats.fallback_launches += 1

    def _execute_fused(self, group: List["_ReplicaSession"],
                       shared_stores: List[dict]) -> None:
        prof = profiling.profiler()
        if prof is None:
            return self._execute_fused_impl(group, shared_stores)
        started = perf_counter()
        emit_before = prof.get("event_emit")
        try:
            return self._execute_fused_impl(group, shared_stores)
        finally:
            elapsed = perf_counter() - started
            emitted = prof.get("event_emit") - emit_before
            prof.add("kernel_execute", elapsed - emitted)

    def _execute_fused_impl(self, group: List["_ReplicaSession"],
                            shared_stores: List[dict]) -> None:
        pending = group[0].pending
        kern, launch = pending.kern, pending.launch
        replicas = len(group)
        warps = launch.total_warps

        # fused argument tuple: one ReplicaBuffer per distinct buffer
        # position (aliased positions share), scalars passed through
        fused_cache: Dict[tuple, ReplicaBuffer] = {}
        fused_args = []
        for position, arg in enumerate(pending.args):
            if isinstance(arg, DeviceBuffer):
                members = [s.pending.args[position] for s in group]
                key = tuple(id(buf) for buf in members)
                fused = fused_cache.get(key)
                if fused is None:
                    fused = ReplicaBuffer(members)
                    fused_cache[key] = fused
                fused_args.append(fused)
            else:
                fused_args.append(arg)

        # shared allocations dispatch to each slot's own device so the
        # per-device allocation sequences stay byte-identical to serial
        # runs; after a split the sub-cohorts may execute in an order
        # that differs from any member's serial order, so a *new*
        # allocation there would land at the wrong address — that is an
        # envelope violation and the group falls back to singles
        split_state = {"occurred": False}

        def shared_alloc(slot: int, block_id: int, name: str, shape,
                         dtype) -> DeviceBuffer:
            store = shared_stores[slot]
            key = (block_id, name)
            buf = store.get(key)
            if buf is None:
                if split_state["occurred"]:
                    raise CohortEnvelopeError(
                        f"replica cohort of {kern.name!r} allocated shared "
                        f"buffer {name!r} after a divergence split; "
                        "per-device allocation order is no longer the "
                        "serial order")
                buf = group[slot].device.memory.alloc(
                    shape, dtype=dtype, space=MemorySpace.SHARED,
                    label=f"{kern.name}.shared.{name}")
                store[key] = buf
            return buf

        num = replicas * warps
        base_blocks = np.fromiter((b for b, _w in pending.schedule),
                                  dtype=np.int64, count=warps)
        base_warps = np.fromiter((w for _b, w in pending.schedule),
                                 dtype=np.int64, count=warps)
        block_ids = np.tile(base_blocks, replicas)
        warp_ids = np.tile(base_warps, replicas)
        slots = np.repeat(np.arange(replicas, dtype=np.int64), warps)

        rows_pending = [np.arange(num, dtype=np.int64)]
        contexts: List[CohortContext] = []
        completed: List[WriteJournal] = []
        attempts = 0
        try:
            while rows_pending:
                rows = rows_pending.pop(0)
                attempts += 1
                if attempts > 2 * num + 8:
                    raise CohortEnvelopeError(
                        f"replica cohort execution of {kern.name!r} did "
                        f"not converge after {attempts} attempts")
                journal = WriteJournal()
                ctx = CohortContext(
                    launch=launch, rows=rows, block_ids=block_ids[rows],
                    warp_ids=warp_ids[rows], shared_alloc=shared_alloc,
                    columnar=self._columnar, journal=journal,
                    step_budget=self._config.cohort_step_budget,
                    replica_slots=slots[rows])
                try:
                    kern(ctx, *fused_args)
                except CohortSplit as split:
                    journal.rollback()
                    split_state["occurred"] = True
                    rows_pending = split.groups + rows_pending
                    continue
                except BaseException:
                    journal.rollback()
                    raise
                completed.append(journal)
                contexts.append(ctx)
        except BaseException:
            for journal in reversed(completed):
                journal.rollback()
            raise
        for journal in completed:
            journal.commit()
        for fused in fused_cache.values():
            fused.writeback()

        fold = graphs = None
        if (self._columnar
                and fault_injection.batch_fold_fault_for(kern.name) is None):
            fold = self._fold(group, kern, launch, contexts)
        if fold is None:
            payloads: Dict[int, tuple] = {}
            for ctx in contexts:
                payloads.update(ctx.replay_events())
        else:
            with _charged_to_fold():
                if self._keep_folds:
                    sizes = fold.sizes([s.tracer.launch_records[-1].identity
                                        for s in group]).tolist()
                else:
                    members = np.arange(len(group))
                    graphs = fold.graphs(members, np.ones_like(members),
                                         [kern.name] * len(group))

        # retire per member, in slot order: each session's monitor ends up
        # with exactly the graph its own serial launch would produce
        for slot, session in enumerate(group):
            device = session.device
            device.launch_count += 1
            device._emit(KernelBeginEvent(
                kernel_name=kern.name, grid=launch.grid,
                block=launch.block, total_threads=launch.total_threads,
                num_warps=launch.total_warps))
            if graphs is not None:
                session.monitor.adopt_graph(graphs[slot])
            elif fold is not None:
                session.folded[len(session.monitor.completed)] = (fold, slot)
                session.folded_bytes += sizes[slot]
                session.monitor.adopt_graph(ADCFG(kern.name))
            else:
                for position in range(warps):
                    events, batch = payloads[slot * warps + position]
                    for event in events:
                        device._emit(event)
                    if batch is not None:
                        device._emit(batch)
            device._emit(KernelEndEvent(kernel_name=kern.name))
        self.stats.fused_groups += 1
        self.stats.fused_launches += replicas

    @staticmethod
    def _fold(group: List["_ReplicaSession"], kern: Kernel,
              launch: LaunchConfig,
              contexts: List[CohortContext]) -> Optional[LaneGridFold]:
        """Fold the finished launch for every member at once."""
        with _charged_to_fold():
            layouts = []
            for session in group:
                memory = session.device.memory
                bases, ends, allocs = memory.lookup_table()
                layouts.append(ReplicaLayout(
                    resolve=memory.resolve_batch, bases=bases, ends=ends,
                    label_ids=session.tracer.label_ids(allocs),
                    labels=session.tracer.labels))
            return fold_lane_grid(kern.name, launch.total_threads,
                                  launch.total_warps, contexts, layouts)

    # -- teardown ------------------------------------------------------

    def _abort(self, sessions: List["_ReplicaSession"]) -> None:
        for session in sessions:
            session.shutdown()


class _FoldGroups:
    """Graphs asked of a batch's lane-grid folds, each summing a group of
    one fold's members; :meth:`build` builds each fold's in one pass."""

    def __init__(self) -> None:
        #: id(fold) -> (fold, group of each member, weight of each
        #: member, identity of each group)
        self._plans: Dict[int, tuple] = {}
        self._graphs: Dict[int, List[ADCFG]] = {}

    def new(self, fold: LaneGridFold, identity: str) -> Tuple[int, int]:
        """A new, empty group of *fold*'s members; returns its handle."""
        plan = self._plans.get(id(fold))
        if plan is None:
            plan = self._plans[id(fold)] = (
                fold, np.full(fold.members, -1, dtype=np.int64),
                np.zeros(fold.members, dtype=np.int64), [])
        plan[3].append(identity)
        return id(fold), len(plan[3]) - 1

    def join(self, handle: Tuple[int, int], slot: int, weight: int) -> None:
        """Add member *slot*, taken *weight* times, to a group."""
        _fold, groups, weights, _identities = self._plans[handle[0]]
        groups[slot] = handle[1]
        weights[slot] = weight

    def build(self) -> None:
        for key, (fold, groups, weights, identities) in self._plans.items():
            self._graphs[key] = fold.graphs(groups, weights, identities)

    def __getitem__(self, handle: Tuple[int, int]) -> ADCFG:
        return self._graphs[handle[0]][handle[1]]


def _segments(sessions: List["_ReplicaSession"],
              graphs: List[List[ADCFG]], counts: Sequence[int]) -> list:
    """Split a finished batch into segments, ready to fold.

    A segment is a run of consecutive sessions whose kernel-identity
    sequences are equal.  Returns, per segment, the arguments of
    :meth:`~repro.core.evidence.Evidence.add_segment`: its first run's
    trace, its run count and, per kernel position, ``(graph, scale)``
    pairs summing its remaining runs.  Those are the first run's graph
    scaled by its remaining dedup count, then one graph per stretch of
    consecutive sessions folded by one fused launch, or the monitor's
    graph of a session whose launch was not folded, in session order.
    Every fold builds all the graphs asked of it in one pass.
    """
    sequences = [tuple(launch.identity for launch in s.tracer.launch_records)
                 for s in sessions]
    bounds = [i for i in range(len(sessions))
              if i == 0 or sequences[i] != sequences[i - 1]]
    groups = _FoldGroups()

    def graph(i: int, position: int):
        source = sessions[i].folded.get(position)
        if source is None:
            return graphs[i][position]
        handle = groups.new(source[0], sequences[i][position])
        groups.join(handle, source[1], 1)
        return handle

    plans = []
    for start, end in zip(bounds, bounds[1:] + [len(sessions)]):
        first = [graph(start, position)
                 for position in range(len(sequences[start]))]
        rest = []
        for position, identity in enumerate(sequences[start]):
            pairs = []
            if counts[start] > 1:
                pairs.append((first[position], counts[start] - 1))
            stretch = None
            for i in range(start + 1, end):
                source = sessions[i].folded.get(position)
                if source is None:
                    pairs.append((graphs[i][position], counts[i]))
                    stretch = None
                    continue
                if stretch is None or stretch[0] is not source[0]:
                    stretch = (source[0], groups.new(source[0], identity))
                    pairs.append((stretch[1], 1))
                groups.join(stretch[1], source[1], counts[i])
            rest.append(pairs)
        plans.append((start, first, sum(counts[start:end]), rest))
    groups.build()

    def resolved(item):
        return item if isinstance(item, ADCFG) else groups[item]

    return [(sessions[start].trace([resolved(g) for g in first]), runs,
             [[(resolved(g), scale) for g, scale in pairs] for pairs in rest]
             if runs > 1 else None)
            for start, first, runs, rest in plans]


@contextmanager
def _charged_to_fold() -> Iterator[None]:
    """Profile the block as ``adcfg_fold``, and inside ``event_emit`` too.

    Lane-grid folds and the graphs built from them stand in for the
    members' event emission and monitor folds, so ``--profile`` nets them
    out of ``event_emit``, and ``kernel_execute`` (a fused launch's
    elapsed time minus its emit time) never contains them.
    """
    prof = profiling.profiler()
    started = perf_counter()
    try:
        yield
    finally:
        if prof is not None:
            elapsed = perf_counter() - started
            prof.add("adcfg_fold", elapsed)
            prof.add("event_emit", elapsed)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def _replicas(values: Sequence[object], config: DeviceConfig,
              dedup: bool) -> Tuple[List[object], List[int]]:
    """Values to record and the runs each stands for."""
    groups = group_values(values, dedup and device_is_deterministic(config))
    return ([value for value, _count in groups],
            [count for _value, count in groups])


def _abandoned(abandoned: _BatchAbandoned, runs: int) -> None:
    resilience_events.record_degradation(
        resilience_events.REPLICA_TO_RUN, "replica",
        f"replica batch abandoned, re-recording serially: {abandoned}",
        runs=runs)


def record_grouped(
        program: Program, values: Sequence[object],
        device_config: Optional[DeviceConfig] = None,
        columnar: bool = True, cohort: bool = True, dedup: bool = False,
) -> Tuple[List[Tuple[ProgramTrace, int]], ReplicaStats]:
    """Record *values* as one replica batch.

    Returns ``(groups, stats)`` where each group is ``(trace, count)``:
    expanding every trace ``count`` times in order reproduces the serial
    ``[record(program, v) for v in values]`` byte for byte.

    ``dedup=True`` additionally collapses consecutive equal values into
    one recording on a deterministic device.  That is only sound when the
    program is a pure function of ``(rt, value)`` — a program drawing
    per-run randomness of its own (e.g. an ORAM-style rotation) produces
    distinct traces for equal inputs, which fused replicas reproduce but
    deduplication would flatten — so it is opt-in, never inferred.
    """
    config = device_config or DeviceConfig()
    values = list(values)
    reps, counts = _replicas(values, config, dedup)
    stats = ReplicaStats(dedup_runs=len(values) - len(reps))
    if len(reps) >= 2:
        engine = _ReplicaCohortEngine(config, columnar, cohort)
        try:
            traces = engine.record_batch(program, reps)
        except _BatchAbandoned as abandoned:
            _abandoned(abandoned, len(reps))
        else:
            stats.merge(engine.stats)
            return list(zip(traces, counts)), stats
    recorder = TraceRecorder(config, columnar=columnar, cohort=cohort)
    traces = [recorder.record(program, value) for value in reps]
    return list(zip(traces, counts)), stats


def fold_grouped(
        program: Program, values: Sequence[object], evidence: "Evidence",
        device_config: Optional[DeviceConfig] = None,
        columnar: bool = True, cohort: bool = True, dedup: bool = False,
) -> FoldedBatch:
    """Record *values* as one replica batch, straight into *evidence*.

    Leaves *evidence* exactly as folding the serial traces of *values*
    one by one with :meth:`~repro.core.evidence.Evidence.add_trace`
    would, and reports their summed trace size, without building a trace
    per run.  ``dedup`` is as for :func:`record_grouped`.  *evidence*
    must not keep per-run graphs: those need every run's trace.
    """
    config = device_config or DeviceConfig()
    values = list(values)
    reps, counts = _replicas(values, config, dedup)
    stats = ReplicaStats(dedup_runs=len(values) - len(reps))
    if len(reps) >= 2:
        engine = _ReplicaCohortEngine(config, columnar, cohort,
                                      keep_folds=True)
        try:
            trace_bytes, seconds = engine.fold_batch(program, reps, counts,
                                                     evidence)
        except _BatchAbandoned as abandoned:
            _abandoned(abandoned, len(reps))
        else:
            stats.merge(engine.stats)
            return FoldedBatch(len(values), trace_bytes, seconds, stats)
    recorder = TraceRecorder(config, columnar=columnar, cohort=cohort)
    trace_bytes, seconds = 0, 0.0
    for value, count in zip(reps, counts):
        trace = recorder.record(program, value)
        trace_bytes += trace.trace_size_bytes() * count
        started = perf_counter()
        evidence.add_segment(trace, count)
        seconds += perf_counter() - started
    return FoldedBatch(len(values), trace_bytes, seconds, stats)
