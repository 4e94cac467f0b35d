"""The simulated GPU device: launch dispatch and event fan-out.

A :class:`Device` owns a :class:`~repro.gpusim.memory.DeviceMemory` and runs
kernel launches warp by warp.  Trace listeners (the NVBit-like channel in
:mod:`repro.tracing`) subscribe to receive every
:class:`~repro.gpusim.events.TraceEvent`: per launch a begin event, each
warp's basic-block and sync events followed by its one
:class:`~repro.gpusim.events.MemoryBatchEvent`, warp after warp in
schedule order, then an end event.

Scheduling: warps of all blocks run to completion in sequence.  With
``shuffle_schedule=True`` the (block, warp) execution order is randomised per
launch, modelling the scheduler non-determinism that per-thread tools such as
DATA observe as trace reordering; Owl's A-DCFG aggregation is insensitive to
it by construction (there is a test asserting exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import profiling
from repro.errors import CohortEnvelopeError
from repro.gpusim.cohort import CohortContext, CohortSplit
from repro.gpusim.context import SimtDivergenceError, WarpContext
from repro.resilience import events as resilience_events
from repro.resilience import faults as fault_injection
from repro.gpusim.events import KernelBeginEvent, KernelEndEvent, TraceEvent
from repro.gpusim.kernel import Kernel, LaunchConfig
from repro.gpusim.memory import (
    DeviceBuffer,
    DeviceMemory,
    MemorySpace,
    WriteJournal,
)


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of the simulated device (Table II analogue)."""

    name: str = "Simulated NVIDIA RTX A4000 (SIMT model)"
    sm_count: int = 48
    warp_size: int = 32
    max_threads_per_block: int = 1024
    global_memory_bytes: int = 16 * 1024 ** 3
    aslr: bool = False
    shuffle_schedule: bool = False
    seed: Optional[int] = None
    #: runaway-kernel guard for the cohort engine: maximum basic-block
    #: entries one cohort attempt may record before the launch is declared
    #: outside the envelope and re-executed per-warp (None = unbounded)
    cohort_step_budget: Optional[int] = None

    def describe(self) -> Dict[str, str]:
        """Key/value rows for the platform table."""
        return {
            "GPU (simulated)": self.name,
            "SMs": str(self.sm_count),
            "Warp size": str(self.warp_size),
            "Max threads/block": str(self.max_threads_per_block),
            "Global memory": f"{self.global_memory_bytes // 1024 ** 3} GiB",
            "Device ASLR": "enabled" if self.aslr else "disabled",
            "Warp scheduling": ("randomised" if self.shuffle_schedule
                                 else "deterministic"),
        }


class LaunchError(Exception):
    """Raised for invalid launch geometry."""


class Device:
    """A simulated CUDA-capable GPU."""

    def __init__(self, config: Optional[DeviceConfig] = None,
                 cohort: bool = False) -> None:
        self.config = config or DeviceConfig()
        self.memory = DeviceMemory(aslr=self.config.aslr, seed=self.config.seed)
        self._listeners: List[Callable[[TraceEvent], None]] = []
        self._rng = np.random.default_rng(self.config.seed)
        self.launch_count = 0
        #: warp-cohort execution: run all warps of a launch in one NumPy
        #: pass (see repro.gpusim.cohort); the per-warp loop stays as the
        #: byte-identical reference path
        self.cohort = cohort

    # ------------------------------------------------------------------
    # tracing hook-up
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register *listener* to receive every trace event."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        self._listeners.remove(listener)

    def _emit(self, event: TraceEvent) -> None:
        prof = profiling.profiler()
        if prof is None:
            for listener in self._listeners:
                listener(event)
            return
        started = perf_counter()
        for listener in self._listeners:
            listener(event)
        prof.add("event_emit", perf_counter() - started)

    # ------------------------------------------------------------------
    # memory convenience
    # ------------------------------------------------------------------

    def alloc(self, shape, dtype=np.int64,
              space: MemorySpace = MemorySpace.GLOBAL,
              label: str = "") -> DeviceBuffer:
        return self.memory.alloc(shape, dtype=dtype, space=space, label=label)

    def alloc_like(self, array: np.ndarray,
                   space: MemorySpace = MemorySpace.GLOBAL,
                   label: str = "") -> DeviceBuffer:
        return self.memory.alloc_like(array, space=space, label=label)

    def reset(self) -> None:
        """Clear memory and launch statistics (fresh process analogue)."""
        self.memory.reset()
        self.launch_count = 0

    # ------------------------------------------------------------------
    # launch
    # ------------------------------------------------------------------

    def launch(self, kern: Kernel, grid, block, *args) -> None:
        """Run *kern* over the grid/block geometry with *args*.

        Emits ``KernelBegin``, the per-warp trace, then ``KernelEnd``.
        Cohort-enabled devices execute all warps together (one NumPy pass
        over a ``(num_warps, 32)`` lane grid) and replay the identical
        per-warp event streams at retirement.
        """
        return self.launch_scheduled(kern, grid, block, args)

    def launch_scheduled(self, kern: Kernel, grid, block, args,
                         schedule=None, shared_store=None) -> None:
        """:meth:`launch` with an optionally pre-drawn warp *schedule* and
        an existing shared-allocation *store*.

        The replica-cohort engine (:mod:`repro.tracing.replica`) draws the
        schedule before parking a launch so the device RNG stream matches
        the serial recorder, and re-uses a fused attempt's shared
        allocations when it falls back to per-member execution — both must
        bypass the schedule/store setup without losing the profiling
        accounting, hence this entry point.
        """
        prof = profiling.profiler()
        if prof is None:
            return self._launch_impl(kern, grid, block, args,
                                     schedule=schedule,
                                     shared_store=shared_store)
        started = perf_counter()
        emit_before = prof.get("event_emit")
        try:
            return self._launch_impl(kern, grid, block, args,
                                     schedule=schedule,
                                     shared_store=shared_store)
        finally:
            elapsed = perf_counter() - started
            emitted = prof.get("event_emit") - emit_before
            prof.add("kernel_execute", elapsed - emitted)

    def _launch_impl(self, kern: Kernel, grid, block, args,
                     schedule=None, shared_store=None) -> None:
        launch = LaunchConfig.create(grid, block)
        if launch.threads_per_block > self.config.max_threads_per_block:
            raise LaunchError(
                f"{launch.threads_per_block} threads/block exceeds device "
                f"limit {self.config.max_threads_per_block}")
        self.launch_count += 1
        self._emit(KernelBeginEvent(
            kernel_name=kern.name, grid=launch.grid, block=launch.block,
            total_threads=launch.total_threads, num_warps=launch.total_warps))

        if shared_store is None:
            shared_store = {}

        def shared_alloc(block_id: int, name: str, shape, dtype) -> DeviceBuffer:
            key = (block_id, name)
            if key not in shared_store:
                # One allocation per block, but a block-independent label:
                # shared memory is a per-block address space, so offset 0 of
                # block 3's array and offset 0 of block 7's array are the
                # *same* location to the analysis.
                shared_store[key] = self.memory.alloc(
                    shape, dtype=dtype, space=MemorySpace.SHARED,
                    label=f"{kern.name}.shared.{name}")
            return shared_store[key]

        if schedule is None:
            schedule = [(b, w)
                        for b in range(launch.num_blocks)
                        for w in range(launch.warps_per_block)]
            if self.config.shuffle_schedule:
                self._rng.shuffle(schedule)

        if self.cohort and kern.cohort and launch.total_warps > 1:
            try:
                self._launch_cohort(kern, launch, args, shared_alloc,
                                    schedule)
            except (CohortEnvelopeError, SimtDivergenceError) as error:
                # the cohort engine left its race-free envelope (divergence
                # it cannot model, a tripped step budget, or an injected
                # violation): all speculative writes were rolled back and
                # no events were emitted, so the per-warp reference engine
                # can re-execute the launch from scratch — the degradation
                # ladder's cohort → warp rung, byte-identical by contract
                resilience_events.record_degradation(
                    resilience_events.COHORT_TO_WARP, "cohort", str(error),
                    kernel=kern.name, launch=self.launch_count - 1)
                self._launch_warps(kern, launch, args, shared_alloc,
                                   schedule)
        else:
            self._launch_warps(kern, launch, args, shared_alloc, schedule)

        self._emit(KernelEndEvent(kernel_name=kern.name))

    def _launch_warps(self, kern: Kernel, launch: LaunchConfig, args,
                      shared_alloc: Callable, schedule) -> None:
        """The per-warp reference loop: one context per scheduled warp."""
        for block_id, warp_id in schedule:
            ctx = WarpContext(launch=launch, block_id=block_id,
                              warp_id=warp_id, emit=self._emit,
                              shared_alloc=shared_alloc)
            kern(ctx, *args)
            batch = ctx.flush_batch()
            if batch is not None:
                self._emit(batch)

    def _launch_cohort(self, kern: Kernel, launch: LaunchConfig, args,
                       shared_alloc: Callable, schedule) -> None:
        """Execute all warps of *launch* as one cohort (plus sub-cohorts).

        The cohort starts as the whole schedule; when warps observably
        disagree (a :class:`CohortSplit` from a collapsed scalar) the
        attempt's memory writes are rolled back and each sub-cohort re-runs
        from the top.  Completed attempts commit their writes and yield the
        per-warp event payloads, which are finally emitted in schedule
        order — byte-identical to the per-warp loop.
        """
        fault = fault_injection.cohort_violation_for(self.launch_count - 1)
        if fault is not None:
            raise CohortEnvelopeError(
                f"injected cohort envelope violation for launch "
                f"{self.launch_count - 1} of {kern.name!r} "
                f"({fault.render()})")
        num = launch.total_warps
        block_ids = np.fromiter((b for b, _w in schedule), dtype=np.int64,
                                count=num)
        warp_ids = np.fromiter((w for _b, w in schedule), dtype=np.int64,
                               count=num)
        pending = [np.arange(num, dtype=np.int64)]
        payloads: Dict[int, tuple] = {}
        # Commits are deferred to launch success: every attempt's journal is
        # retained so an envelope violation raised after some sub-cohorts
        # already completed can still restore pre-launch memory exactly
        # (rollback in reverse application order) before the per-warp
        # fallback re-executes the whole launch.
        completed: List[WriteJournal] = []
        attempts = 0
        try:
            while pending:
                rows = pending.pop(0)
                attempts += 1
                if attempts > 2 * num + 8:
                    # A split always yields >= 2 strictly smaller groups, so
                    # a deterministic kernel executes at most 2*num - 1
                    # attempts.
                    raise CohortEnvelopeError(
                        f"cohort execution of {kern.name!r} did not "
                        f"converge after {attempts} attempts")
                journal = WriteJournal()
                ctx = CohortContext(
                    launch=launch, rows=rows, block_ids=block_ids[rows],
                    warp_ids=warp_ids[rows], shared_alloc=shared_alloc,
                    journal=journal,
                    step_budget=self.config.cohort_step_budget)
                try:
                    kern(ctx, *args)
                except CohortSplit as split:
                    journal.rollback()
                    pending = split.groups + pending
                    continue
                except BaseException:
                    journal.rollback()
                    raise
                completed.append(journal)
                payloads.update(ctx.replay_events())
        except BaseException:
            for journal in reversed(completed):
                journal.rollback()
            raise
        for journal in completed:
            journal.commit()
        for position in range(num):
            events, batch = payloads[position]
            for event in events:
                self._emit(event)
            if batch is not None:
                self._emit(batch)
