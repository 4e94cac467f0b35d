"""A DATA-like dynamic differential analyzer (Weiser et al., USENIX '18).

Two faithful aspects are modelled:

**Host-only visibility.**  DATA instruments the CPU binary with Pin, so on a
CUDA application it observes kernel *launches* (library calls) and host
allocations but nothing inside the GPU.  :func:`data_tool_analyze` performs
DATA-style trace differencing over that host view: it finds kernel leaks
(launch-sequence differences between inputs) and is structurally blind to
device control-flow and data-flow leaks — the paper's RQ3 observation.

**Per-thread recording cost.**  DATA's multi-threading support records one
trace per thread and differences them pairwise.  "The memory consumption
increases proportionally with the number of threads" (§I);
:class:`PerThreadTraceRecorder` implements exactly that representation so
the aggregation ablation can measure the blow-up against Owl's A-DCFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.alignment import EditOp, myers_diff
from repro.gpusim.device import Device, DeviceConfig
from repro.gpusim.events import (
    BasicBlockEvent,
    KernelBeginEvent,
    KernelEndEvent,
    MemoryBatchEvent,
    SyncEvent,
    TraceEvent,
)
from repro.host.callstack import current_stack_depth
from repro.host.runtime import CudaRuntime
from repro.host.tracer import HostTracer
from repro.tracing.recorder import Program

#: Serialised bytes per per-thread trace entry (label id + payload), the
#: same order of magnitude as DATA's address-trace entries.
PER_THREAD_ENTRY_BYTES = 12


# ---------------------------------------------------------------------------
# host-only differential analysis
# ---------------------------------------------------------------------------

@dataclass
class DataToolReport:
    """Outcome of DATA-style host-trace differencing."""

    kernel_differences: List[str] = field(default_factory=list)
    device_findings: List[str] = field(default_factory=list)  # always empty

    @property
    def found_kernel_leak(self) -> bool:
        return bool(self.kernel_differences)

    @property
    def can_see_device_leaks(self) -> bool:
        """Structurally false: the host trace has no device content."""
        return False


def _host_trace(program: Program, value: object,
                device_config: DeviceConfig = None) -> Tuple[str, ...]:
    """The Pin view of one execution: the launch-call sequence only."""
    device = Device(device_config or DeviceConfig())
    tracer = HostTracer(device.memory)
    rt = CudaRuntime(device)
    rt.attach_tracer(tracer)
    rt.call_stack_anchor = current_stack_depth()
    try:
        program(rt, value)
    finally:
        rt.detach_tracer()
    return tracer.launch_sequence


def data_tool_analyze(program: Program, inputs: Sequence[object],
                      device_config: DeviceConfig = None) -> DataToolReport:
    """Pairwise-diff the host traces of *inputs*, DATA style."""
    traces = [_host_trace(program, value, device_config) for value in inputs]
    report = DataToolReport()
    reference = traces[0]
    for index, trace in enumerate(traces[1:], start=1):
        for step in myers_diff(reference, trace):
            if step.op is EditOp.EQUAL:
                continue
            side = ("input 0" if step.op is EditOp.DELETE
                    else f"input {index}")
            identity = (reference[step.a_index]
                        if step.op is EditOp.DELETE
                        else trace[step.b_index])
            report.kernel_differences.append(
                f"launch {identity} present only under {side}")
    return report


# ---------------------------------------------------------------------------
# per-thread recording (the scalability strawman)
# ---------------------------------------------------------------------------

class PerThreadTraceRecorder:
    """Records one (basic block, address) event list per GPU thread.

    This is the representation Owl's A-DCFG replaces: every active lane of
    every warp event becomes one per-thread entry, so memory grows linearly
    with the thread count while Owl's aggregated graph saturates.
    """

    def __init__(self) -> None:
        #: thread id → list of entries ("bb:<label>" or "mem:<addr>")
        self.threads: Dict[int, List[str]] = {}
        self._launch = None
        #: the current warp's block entries, held until its memory batch
        #: arrives so each access lands after the block visit issuing it
        self._blocks: List[BasicBlockEvent] = []

    # -- device event intake ------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        if isinstance(event, KernelBeginEvent):
            self._launch = event
        elif isinstance(event, KernelEndEvent):
            self._flush_warp(None)
            self._launch = None
        elif isinstance(event, BasicBlockEvent):
            if self._blocks and (self._blocks[0].block_id,
                                 self._blocks[0].warp_id) != (
                                     event.block_id, event.warp_id):
                self._flush_warp(None)
            self._blocks.append(event)
        elif isinstance(event, MemoryBatchEvent):
            self._flush_warp(event)
        elif isinstance(event, SyncEvent):
            pass
        else:
            raise TypeError(f"unknown trace event {event!r}")

    def _flush_warp(self, batch) -> None:
        """Log the held warp's block entries, each followed by the
        accesses its visit issued (*batch*: the warp's memory, or None).

        A device emits a warp's block and sync events, then its one batch,
        warp after warp; a batch's instructions are in issue order, and
        each belongs to the latest block visit entered before it.
        """
        blocks, self._blocks = self._blocks, []
        accesses = iter(() if batch is None else batch.iter_events())
        access = next(accesses, None)
        for block in blocks:
            # every thread of the warp logs the block entry separately —
            # the redundancy Owl aggregates away
            for thread_id in self._warp_threads(block.block_id,
                                                block.warp_id,
                                                block.active_lanes):
                self._entry(thread_id).append(f"bb:{block.label}")
            while access is not None and (access.label, access.visit) \
                    == (block.label, block.visit):
                threads = self._warp_threads(access.block_id, access.warp_id,
                                             len(access.addresses))
                for thread_id, address in zip(threads, access.addresses):
                    self._entry(thread_id).append(f"mem:{address:#x}")
                access = next(accesses, None)
        if access is not None:
            raise RuntimeError(
                f"memory access of {access.label!r} visit {access.visit} "
                "outside the warp's block entries")

    def _warp_threads(self, block_id: int, warp_id: int,
                      count: int) -> List[int]:
        if self._launch is None:
            raise RuntimeError("device event outside any kernel launch")
        threads_per_block = (self._launch.block[0] * self._launch.block[1]
                             * self._launch.block[2])
        base = block_id * threads_per_block + warp_id * 32
        return [base + lane for lane in range(count)]

    def _entry(self, thread_id: int) -> List[str]:
        found = self.threads.get(thread_id)
        if found is None:
            found = []
            self.threads[thread_id] = found
        return found

    # -- accounting ----------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def total_entries(self) -> int:
        return sum(len(entries) for entries in self.threads.values())

    def memory_bytes(self) -> int:
        """Approximate resident size of the per-thread representation."""
        return self.total_entries * PER_THREAD_ENTRY_BYTES

    # -- DATA-style differential analysis ------------------------------------

    def diff_against(self, other: "PerThreadTraceRecorder") -> int:
        """Pairwise per-thread differencing; returns differing-thread count.

        One Myers diff per thread — the n-fold analysis cost the paper
        calls "a daunting task for solutions like DATA".
        """
        differing = 0
        for thread_id in sorted(set(self.threads) | set(other.threads)):
            mine = self.threads.get(thread_id, [])
            theirs = other.threads.get(thread_id, [])
            if any(step.op is not EditOp.EQUAL
                   for step in myers_diff(mine, theirs)):
                differing += 1
        return differing


def record_per_thread(program: Program, value: object,
                      device_config: DeviceConfig = None
                      ) -> PerThreadTraceRecorder:
    """Run *program* once while recording DATA-style per-thread traces."""
    device = Device(device_config or DeviceConfig())
    recorder = PerThreadTraceRecorder()
    device.subscribe(recorder.on_event)
    rt = CudaRuntime(device)
    rt.call_stack_anchor = current_stack_depth()
    try:
        program(rt, value)
    finally:
        device.unsubscribe(recorder.on_event)
    return recorder


def per_thread_memory_bytes(program: Program, value: object,
                            device_config: DeviceConfig = None) -> int:
    """Memory footprint of the per-thread representation for one run."""
    return record_per_thread(program, value, device_config).memory_bytes()
