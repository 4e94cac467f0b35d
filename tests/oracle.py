"""Reference views shared by the equivalence tests.

Devices emit one :class:`~repro.gpusim.events.MemoryBatchEvent` per warp.
Two views of that stream serve as oracles:

* :func:`expand` turns a raw event stream into comparable per-instruction
  events (batches hold NumPy arrays, which do not compare with ``==``);
* :func:`record_per_event` records a trace through the per-event fold —
  every batch expanded with ``iter_events`` and folded one instruction at
  a time through ``ADCFGBuilder.on_memory_access``, the monitor's
  columnar → object degradation rung — which the batched fold must match
  byte for byte.
"""

from repro.gpusim.events import MemoryBatchEvent
from repro.resilience import FaultPlan
from repro.resilience.events import COLUMNAR_TO_OBJECT, collecting_degradations
from repro.resilience.faults import activated
from repro.tracing.recorder import TraceRecorder

#: the fault that routes every memory batch through the per-event fold
PER_EVENT_FOLD = FaultPlan.parse("batch_fold_error")


def expand(events):
    """*events* with each batch replaced by its per-instruction events."""
    return [item for event in events
            for item in (event.iter_events()
                         if isinstance(event, MemoryBatchEvent)
                         else (event,))]


def memory_events(events):
    """The per-instruction memory events of a raw device stream."""
    return [item for event in events
            if isinstance(event, MemoryBatchEvent)
            for item in event.iter_events()]


def record_per_event(program, value, **recorder_kwargs):
    """Record ``program(rt, value)`` through the per-event fold."""
    with activated(PER_EVENT_FOLD), collecting_degradations() as log:
        trace = TraceRecorder(**recorder_kwargs).record(program, value)
    assert log.counts_by_kind().get(COLUMNAR_TO_OBJECT), \
        "no memory batch took the per-event fold"
    return trace
