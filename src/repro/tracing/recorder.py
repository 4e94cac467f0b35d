"""Hierarchical trace recording: one execution → one :class:`ProgramTrace`.

:class:`TraceRecorder` assembles the full §V pipeline for a single program
execution:

1. a fresh simulated :class:`~repro.gpusim.device.Device` (fresh memory
   layout, like a fresh process);
2. a :class:`~repro.host.runtime.CudaRuntime` with a Pin-like
   :class:`~repro.host.tracer.HostTracer` capturing malloc/launch records
   and providing address normalisation;
3. an NVBit-like :class:`~repro.tracing.channel.Channel` feeding a
   :class:`~repro.tracing.monitor.WarpTraceMonitor` that folds warp events
   into one A-DCFG per kernel invocation.

A *program under test* is any callable ``program(rt, value)`` that drives
the :class:`~repro.host.runtime.CudaRuntime` — the same shape as a CUDA
``main()`` taking a secret input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.adcfg.graph import ADCFG
from repro.adcfg.serialize import adcfg_size_bytes, serialize_adcfg
from repro.errors import TraceError
from repro.gpusim.device import Device, DeviceConfig
from repro.host.callstack import current_stack_depth
from repro.host.runtime import CudaRuntime, LaunchRecord, MallocRecord
from repro.host.tracer import HostTracer
from repro.tracing.channel import Channel
from repro.tracing.monitor import WarpTraceMonitor

#: A program under test: drives the runtime with one (secret) input value.
Program = Callable[[CudaRuntime, object], object]


class RecordingError(TraceError):
    """Raised when host and device observations cannot be joined."""


@dataclass
class KernelInvocation:
    """One kernel launch: host identity joined with its device A-DCFG."""

    identity: str
    kernel_name: str
    seq: int
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    adcfg: ADCFG

    @property
    def total_threads(self) -> int:
        return self.adcfg.total_threads


class ProgramTrace:
    """The complete trace of one program execution."""

    def __init__(self, invocations: List[KernelInvocation],
                 malloc_records: List[MallocRecord],
                 launch_records: List[LaunchRecord],
                 signature: Optional[str] = None) -> None:
        self.invocations = invocations
        self.malloc_records = malloc_records
        self.launch_records = launch_records
        #: :meth:`signature`'s digest, when the creator already knows it
        self._signature = signature
        self._size_bytes: Optional[int] = None

    @property
    def kernel_sequence(self) -> Tuple[str, ...]:
        """Ordered kernel identities — the program-level trace T_P."""
        return tuple(inv.identity for inv in self.invocations)

    # ------------------------------------------------------------------
    # size accounting (Fig. 5 / Table IV)
    # ------------------------------------------------------------------

    def adcfg_bytes(self) -> int:
        return sum(adcfg_size_bytes(inv.adcfg) for inv in self.invocations)

    def malloc_bytes(self) -> int:
        return sum(r.size_bytes() for r in self.malloc_records)

    def launch_bytes(self) -> int:
        return sum(r.size_bytes() for r in self.launch_records)

    def trace_size_bytes(self) -> int:
        """Total serialised trace footprint.

        Memoised like :meth:`signature` (a trace is immutable once
        recorded): sizing serialises every A-DCFG, and the recording
        pool's accounting asks per run while replica batching shares one
        trace object across its deduplicated runs.
        """
        if self._size_bytes is None:
            self._size_bytes = (self.adcfg_bytes() + self.malloc_bytes()
                                + self.launch_bytes())
        return self._size_bytes

    # ------------------------------------------------------------------
    # equality / signatures (duplicates-removing phase)
    # ------------------------------------------------------------------

    def signature(self) -> str:
        """Stable digest of the trace content.

        Two executions with identical kernel sequences and identical
        A-DCFGs (§VI's trace-equality criterion) share a signature.
        Memoised: a trace is immutable once recorded, and the filtering
        phase, worker transfers, and tests all re-ask for the digest.
        """
        if self._signature is None:
            hasher = hashlib.sha256()
            for inv in self.invocations:
                hasher.update(inv.identity.encode())
                hasher.update(serialize_adcfg(inv.adcfg))
            self._signature = hasher.hexdigest()
        return self._signature

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProgramTrace):
            return NotImplemented
        if self.kernel_sequence != other.kernel_sequence:
            return False
        return all(a.adcfg == b.adcfg
                   for a, b in zip(self.invocations, other.invocations))

    def __repr__(self) -> str:
        return (f"ProgramTrace(invocations={len(self.invocations)}, "
                f"size={self.trace_size_bytes()}B)")


class _IdentityQueue:
    """Monitor stand-in for buffered mode: queues launch identities so they
    can be replayed in order when the channel drains."""

    def __init__(self, pending: List[str]) -> None:
        self._pending = pending

    def expect_kernel(self, identity: str) -> None:
        self._pending.append(identity)


class _SessionTracer(HostTracer):
    """Host tracer that also announces identities to the device monitor."""

    def __init__(self, memory) -> None:
        super().__init__(memory)
        self._monitor: Optional[WarpTraceMonitor] = None

    def bind_monitor(self, monitor: WarpTraceMonitor) -> None:
        self._monitor = monitor

    def on_launch(self, record: LaunchRecord) -> None:
        super().on_launch(record)
        if self._monitor is not None:
            self._monitor.expect_kernel(record.identity)


class TraceRecorder:
    """Records program executions into :class:`ProgramTrace` objects.

    ``buffered=True`` switches the NVBit-like channel from eager delivery to
    the batched configuration the real tool uses to amortise device→host
    transfers: events accumulate on the channel and are drained into the
    monitor after the program finishes.  Both modes produce identical
    traces (asserted in the tests); buffered mode additionally exercises
    the transport's ordering guarantees.

    Warps buffer their memory accesses and ship one
    :class:`~repro.gpusim.events.MemoryBatchEvent` per warp through the
    channel; the monitor normalises each launch's unique addresses in one
    vectorised pass and folds the A-DCFG in bulk.  The per-event fold
    (:meth:`~repro.gpusim.events.MemoryBatchEvent.iter_events` through
    :meth:`~repro.adcfg.builder.ADCFGBuilder.on_memory_access`) is the
    degradation rung and the tests' oracle; traces are byte-identical
    either way (asserted in every combination with buffering, schedule
    shuffling, and ASLR).

    ``cohort=True`` (the default) executes every warp of a launch in one
    NumPy pass over a ``(num_warps, 32)`` lane grid
    (:mod:`repro.gpusim.cohort`) and replays the identical per-warp event
    streams at retirement; ``cohort=False`` keeps the per-warp execution
    loop as the reference.  Traces are byte-identical either way (asserted
    across all bundled workloads).
    """

    def __init__(self, device_config: Optional[DeviceConfig] = None,
                 buffered: bool = False, cohort: bool = True) -> None:
        self._device_config = device_config or DeviceConfig()
        self._buffered = buffered
        self._cohort = cohort

    def record(self, program: Program, value: object) -> ProgramTrace:
        """Execute ``program(rt, value)`` under full instrumentation."""
        device = Device(self._device_config, cohort=self._cohort)
        tracer = _SessionTracer(device.memory)
        monitor = WarpTraceMonitor(
            normalizer=lambda addr: tracer.normalize(addr).as_key(),
            batch_normalizer=tracer.normalize_keys,
            key_id_normalizer=tracer.normalize_key_ids)

        if self._buffered:
            channel = Channel()
            # identities must be announced in launch order; queue them and
            # feed the monitor during the drain
            pending_identities = []
            tracer.bind_monitor(_IdentityQueue(pending_identities))
        else:
            channel = Channel(sink=monitor.on_event)
            tracer.bind_monitor(monitor)
        device.subscribe(channel.send)

        rt = CudaRuntime(device)
        rt.attach_tracer(tracer)
        # Anchor launch-site identities at the program's entry so the
        # recorder's (and its callers') own frames never differentiate
        # otherwise-identical executions.
        rt.call_stack_anchor = current_stack_depth()
        try:
            program(rt, value)
        finally:
            rt.detach_tracer()
            device.unsubscribe(channel.send)

        if self._buffered:
            from repro.gpusim.events import KernelBeginEvent
            identities = iter(pending_identities)
            for event in channel.drain():
                if isinstance(event, KernelBeginEvent):
                    monitor.expect_kernel(next(identities, event.kernel_name))
                monitor.on_event(event)

        graphs = monitor.finish()
        launches = tracer.launch_records
        if len(graphs) != len(launches):
            raise RecordingError(
                f"host saw {len(launches)} launches but device produced "
                f"{len(graphs)} kernel traces")
        invocations = [
            KernelInvocation(identity=launch.identity,
                             kernel_name=launch.kernel_name, seq=launch.seq,
                             grid=launch.grid, block=launch.block,
                             adcfg=graph)
            for launch, graph in zip(launches, graphs)
        ]
        return ProgramTrace(invocations=invocations,
                            malloc_records=list(tracer.malloc_records),
                            launch_records=list(launches))

    def record_many(self, program: Program,
                    values: Sequence[object]) -> List[ProgramTrace]:
        """Record one trace per input value."""
        return [self.record(program, value) for value in values]
