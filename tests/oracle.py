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

Recording and analysis each keep one fast path; their per-run and
scalar references live here:

* :func:`serial_rung` records every replica batch through the serial
  rung of :func:`~repro.tracing.replica.record_grouped` and
  :func:`~repro.tracing.replica.fold_grouped` while keeping the cohort
  engine, so fused batches are held to per-run recording alone
  (``cohort=False`` is the whole reference recorder, per-warp engine
  included);
* :class:`ScalarKS` and :class:`ScalarMI` test every feature inline with
  the scalar ``ks_test``/``ks_test_weighted`` and ``mi_test``, the
  report-level oracles of the batched ``ks_test_batch`` and
  ``mi_test_batch`` passes.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from repro.analysis import analysis_modes
from repro.analysis.mi import MIAnalyzer
from repro.analysis.mi.estimator import mi_test
from repro.core.kstest import DistributionTestError, ks_test, ks_test_weighted
from repro.core.leakage import LeakageAnalyzer
from repro.gpusim.events import MemoryBatchEvent
from repro.resilience import FaultPlan
from repro.resilience.events import COLUMNAR_TO_OBJECT, collecting_degradations
from repro.resilience.faults import activated
from repro.tracing.recorder import TraceRecorder
from repro.tracing.replica import _BatchAbandoned, _ReplicaCohortEngine

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


@contextmanager
def serial_rung():
    """Record every replica batch through its serial rung, cohort engine on.

    Each batch of two or more distinct runs is abandoned before its first
    session starts, so the entry points re-record its runs one at a time
    with ``TraceRecorder(cohort=True)``.  In-process only (use
    ``workers=1``); asserts on exit that some batch took the rung.
    """
    abandoned = []

    def abandon(engine, program, values):
        abandoned.append(len(values))
        raise _BatchAbandoned("recorded by the serial-rung oracle")

    with mock.patch.object(_ReplicaCohortEngine, "_run", abandon):
        yield
    assert abandoned, "no replica batch took the serial rung"


class ScalarKS(LeakageAnalyzer):
    """The KS detector testing each feature inline with the scalar tests."""

    def _defer(self):
        return False

    def _plain_test(self, x, y):
        return ks_test(x, y, confidence=self.config.confidence)

    def _categorical_test(self, hist_x, hist_y, order=None):
        try:
            return ks_test_weighted(
                hist_x, hist_y, confidence=self.config.confidence,
                order=order, sample_size_cap=self.config.sample_size_cap)
        except DistributionTestError:
            return None


class ScalarMI(MIAnalyzer):
    """The MI detector testing each feature inline with ``mi_test``."""

    def _defer(self):
        return False

    def _mi_test(self, hist_x, hist_y, order=None):
        return mi_test(hist_x, hist_y, confidence=self.config.confidence,
                       order=order,
                       correction=self.config.mi_bias_correction,
                       min_bits=self.config.mi_min_bits,
                       sample_size_cap=self.config.sample_size_cap)

    def _plain_test(self, x, y):
        # a weighted MI table over a sample's value counts is the sample's
        # contingency table, mirroring the KS plain-to-weighted reduction
        return self._mi_test(Counter(x), Counter(y))

    def _categorical_test(self, hist_x, hist_y, order=None):
        try:
            return self._mi_test(hist_x, hist_y, order=order)
        except DistributionTestError:
            return None


def scalar_analyzers(config):
    """The scalar oracle detectors an ``OwlConfig`` asks for."""
    scalar = {"ks": ScalarKS, "mi": ScalarMI}
    return tuple(scalar[mode](config.leakage_config())
                 for mode in analysis_modes(config.analyzer))
