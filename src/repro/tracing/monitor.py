"""The host-side monitor that turns warp events into A-DCFGs.

Per §V-C of the paper, the monitor identifies warps by the pair
*(block id, warp id)* — warp ids alone are only unique within a block — and
maintains each warp's trace context.  Basic-block and memory events are
folded straight into the current invocation's
:class:`~repro.adcfg.builder.ADCFGBuilder`, so per-thread data never
accumulates.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from repro import profiling
from repro.adcfg.builder import (
    ADCFGBuilder,
    BatchNormalizer,
    KeyIdNormalizer,
    Normalizer,
)
from repro.adcfg.graph import ADCFG
from repro.errors import TraceError
from repro.gpusim.events import (
    BasicBlockEvent,
    KernelBeginEvent,
    KernelEndEvent,
    MemoryAccessEvent,
    MemoryBatchEvent,
    SyncEvent,
    TraceEvent,
)
from repro.resilience import events as resilience_events
from repro.resilience import faults as fault_injection


class MonitorError(TraceError):
    """Raised when the event stream is malformed (e.g. unmatched begin/end)."""


class WarpTraceMonitor:
    """Consumes the device event stream for a sequence of kernel launches.

    The monitor does not know kernel identities (call stacks live on the
    host side); the caller supplies the identity for each upcoming launch
    through :meth:`expect_kernel`, mirroring how Owl joins Pin's launch
    records with NVBit's device stream.
    """

    def __init__(self, normalizer: Optional[Normalizer] = None,
                 batch_normalizer: Optional[BatchNormalizer] = None,
                 key_id_normalizer: Optional[KeyIdNormalizer] = None) -> None:
        self._normalizer = normalizer
        self._batch_normalizer = batch_normalizer
        self._key_id_normalizer = key_id_normalizer
        self._pending_identity: Optional[str] = None
        self._builder: Optional[ADCFGBuilder] = None
        self.completed: List[ADCFG] = []
        self.sync_events = 0

    def expect_kernel(self, identity: str) -> None:
        """Declare the identity of the next kernel launch."""
        self._pending_identity = identity

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        profiler = profiling.profiler()
        if profiler is not None:
            started = perf_counter()
            try:
                self._dispatch(event)
            finally:
                profiler.add("adcfg_fold", perf_counter() - started)
            return
        self._dispatch(event)

    def _dispatch(self, event: TraceEvent) -> None:
        if isinstance(event, KernelBeginEvent):
            self._begin(event)
        elif isinstance(event, KernelEndEvent):
            self._end(event)
        elif isinstance(event, BasicBlockEvent):
            self._require_builder().on_basic_block(event)
        elif isinstance(event, MemoryAccessEvent):
            self._require_builder().on_memory_access(event)
        elif isinstance(event, MemoryBatchEvent):
            self._fold_batch(event)
        elif isinstance(event, SyncEvent):
            self.sync_events += 1
        else:
            raise MonitorError(f"unknown trace event {event!r}")

    def _fold_batch(self, event: MemoryBatchEvent) -> None:
        """Accept a columnar batch, downgrading to per-event replay on fault.

        Healthy batches are buffered on the builder and folded kernel-wide
        at :meth:`_end`.  An injected ``batch_fold_error`` degrades this
        batch immediately: the object path (``iter_events`` through
        ``on_memory_access``) is proven identical to the batched fold, so
        the fault costs speed, never correctness — the columnar → object
        rung of the degradation ladder.
        """
        builder = self._require_builder()
        kernel_name = builder.graph.kernel_name
        fault = fault_injection.batch_fold_fault_for(kernel_name)
        if fault is None:
            builder.on_memory_batch(event)
            return
        reason = (f"injected batch-fold failure for kernel "
                  f"{kernel_name!r} ({fault.render()})")
        resilience_events.record_degradation(
            resilience_events.COLUMNAR_TO_OBJECT, "monitor", reason,
            kernel=kernel_name, block=event.block_id, warp=event.warp_id)
        for item in event.iter_events():
            builder.on_memory_access(item)

    def _flush_batches(self, builder: ADCFGBuilder) -> None:
        """Run the kernel-wide fold, downgrading to per-event replay on error.

        The vectorised fold fails before the graph is touched (packing,
        sorting and normaliser errors all precede mutation), so the replay
        below starts from a clean slate and produces the identical graph.
        """
        try:
            builder.fold_pending_batches()
        except MonitorError:
            raise
        except Exception as error:
            resilience_events.record_degradation(
                resilience_events.COLUMNAR_TO_OBJECT, "monitor", str(error),
                kernel=builder.graph.kernel_name)
            for batch in builder.take_pending_batches():
                for item in batch.iter_events():
                    builder.on_memory_access(item)

    def _begin(self, event: KernelBeginEvent) -> None:
        if self._builder is not None:
            raise MonitorError(
                f"kernel {event.kernel_name!r} began while another launch "
                "is still active")
        identity = self._pending_identity or event.kernel_name
        self._pending_identity = None
        self._builder = ADCFGBuilder(
            kernel_identity=identity, kernel_name=event.kernel_name,
            total_threads=event.total_threads, num_warps=event.num_warps,
            normalizer=self._normalizer,
            batch_normalizer=self._batch_normalizer,
            key_id_normalizer=self._key_id_normalizer)

    def _end(self, event: KernelEndEvent) -> None:
        builder = self._require_builder()
        if builder.graph.kernel_name != event.kernel_name:
            raise MonitorError(
                f"kernel end for {event.kernel_name!r} does not match the "
                f"active launch {builder.graph.kernel_name!r}")
        self._flush_batches(builder)
        self.completed.append(builder.finish())
        self._builder = None

    def adopt_graph(self, graph: ADCFG) -> None:
        """Take the active launch's graph, folded outside the event stream.

        The replica engine folds a fused launch for all its members at
        once (:func:`repro.adcfg.builder.fold_lane_grid`) and hands each
        member's monitor its finished graph — in phase 3 an empty stand-in,
        the graph staying in the fold — between the launch's begin and end
        events; the graph takes the launch's identity, and the end event
        completes it as usual.
        """
        builder = self._require_builder()
        graph.kernel_identity = builder.graph.kernel_identity
        builder.graph = graph

    def _require_builder(self) -> ADCFGBuilder:
        if self._builder is None:
            raise MonitorError("device event outside any kernel launch")
        return self._builder

    def finish(self) -> List[ADCFG]:
        """Return all completed invocation graphs; the stream must be closed."""
        if self._builder is not None:
            raise MonitorError(
                f"kernel {self._builder.graph.kernel_name!r} never ended")
        return self.completed
