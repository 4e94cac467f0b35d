"""Lightweight per-phase wall-clock profiling for the pipeline.

The ``--profile`` CLI flag enables a process-global :class:`PhaseProfiler`;
instrumented hot spots (device launch, event emission, A-DCFG folding)
record into it only while one is active, so the default path pays a single
``None`` check per event.  Phases are plain string keys:

* ``kernel_execute`` — time inside ``Device.launch`` (or a fused replica
  launch) minus event emission;
* ``event_emit``     — trace-listener dispatch (includes folding; the CLI
  reports it net of ``adcfg_fold``);
* ``adcfg_fold``     — the A-DCFG monitor's per-event folding work, plus
  the one lane-grid fold of each fused replica launch
  (:func:`repro.adcfg.builder.fold_lane_grid`) and the graphs built from
  those folds — per member in phase 1, per segment when a phase-3 batch
  ends (:func:`repro.tracing.replica.fold_grouped`); these are charged to
  ``event_emit`` as well so they stay out of ``kernel_execute``;
* ``store_encode`` / ``store_decode`` — the trace and evidence codecs of
  :mod:`repro.store.serialize`;
* ``blob_write`` / ``blob_read`` — :class:`repro.store.blobs.BlobStore`'s
  ``put`` (compress, write, fsync, rename) and ``get`` (read, decompress,
  re-hash);
* the analysis phases (``analysis``, ``evidence_fold``) come from the
  pipeline's existing :class:`PhaseStats` rather than from hooks.

This module must stay dependency-free (stdlib only): it is imported by
:mod:`repro.gpusim.device`, which sits below everything else in the
package's import graph.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Optional


class PhaseProfiler:
    """Accumulates wall-clock seconds and hit counts per phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + count

    def get(self, phase: str) -> float:
        return self.seconds.get(phase, 0.0)


_active: Optional[PhaseProfiler] = None


def profiler() -> Optional[PhaseProfiler]:
    """The active profiler, or None when profiling is off (the fast path)."""
    return _active


def enable(existing: Optional[PhaseProfiler] = None) -> PhaseProfiler:
    """Install (and return) a process-global profiler."""
    global _active
    _active = existing if existing is not None else PhaseProfiler()
    return _active


def disable() -> Optional[PhaseProfiler]:
    """Deactivate profiling and return the profiler that was active."""
    global _active
    previous = _active
    _active = None
    return previous


def timed(phase: str) -> Callable[[Callable], Callable]:
    """Decorator: charge each call's wall-clock time to *phase* while a
    profiler is active (otherwise one ``None`` check per call)."""
    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def call(*args, **kwargs):
            prof = _active
            if prof is None:
                return function(*args, **kwargs)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                prof.add(phase, time.perf_counter() - started)
        return call
    return decorate
