"""Span tracing installed from outside ``src/``: wrappers, dumps, self time.

Nothing under ``src/`` carries instrumentation.  :func:`install` replaces
each traced function or method *in the module or class that looks it up*
(``repro.core.leakage.ks_test_batch``, not ``repro.core.kstest``'s copy,
because ``leakage`` imported the name) with a wrapper that records one
span ``[name, start, end, parent, thread, attrs]`` per call.  Spans stay
in memory; a service process writes its own to a JSON file when it exits
and the benchmark process merges them.

Times are ``time.perf_counter()`` (``CLOCK_MONOTONIC`` on Linux, shared
by every process on the host), so spans from the server, the workers and
the client threads line up on one axis.  A span's *self time* is its
duration minus the durations of its direct children; a call tree's self
times therefore add up to its root's duration exactly once, however
deeply same-layer calls nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Index of each field in a span record.
NAME, START, END, PARENT, THREAD, ATTRS = range(6)


class Tracer:
    """Per-process span buffer with one call stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = True
        self._local = threading.local()

    def record(self, name: str, fn: Callable, args, kwargs,
               annotate: Optional[Callable] = None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, stack[-1] if stack else None,
                threading.get_ident(), None]
        stack.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if annotate is not None:
            span[ATTRS] = annotate(args, kwargs, result)
        return result

    def add(self, name: str, start: float, end: float,
            attrs: Optional[Dict] = None) -> None:
        """Record a span the benchmark timed itself (e.g. a poll wait)."""
        if self.active:
            self.spans.append([name, start, end, None,
                               threading.get_ident(), attrs])

    def export(self, role: str) -> Dict:
        """JSON-safe dump; parents become indices into ``spans``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {"role": role, "pid": os.getpid(),
                "main_thread": threading.main_thread().ident,
                "wall_minus_mono": time.time() - time.perf_counter(),
                "spans": [[span[NAME], span[START], span[END],
                           index.get(id(span[PARENT])), span[THREAD],
                           span[ATTRS]] for span in self.spans]}

    def dump(self, path, role: str) -> None:
        Path(path).write_text(json.dumps(self.export(role)),
                              encoding="utf-8")


def wrap(tracer: Tracer, owner, attr: str, name: str,
         annotate: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` (a module function or a method) in place."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.record(name, original, args, kwargs, annotate)

    setattr(owner, attr, traced)


# ----------------------------------------------------------------------
# what each span records besides its time
# ----------------------------------------------------------------------

def _grouped_counts(args, kwargs, result) -> Dict:
    groups, stats = result
    return {"replicas": sum(count for _trace, count in groups),
            "bytes": sum(trace.trace_size_bytes() * count
                         for trace, count in groups),
            "fused": stats.fused_launches,
            "fallback": stats.fallback_launches}


def _single_counts(args, kwargs, result) -> Dict:
    return {"replicas": 1, "bytes": result.trace_size_bytes()}


def _request_count(args, kwargs, result) -> Dict:
    return {"requests": len(args[0])}


def _read_bytes(args, kwargs, result) -> Dict:
    return {"bytes": len(result) if result is not None else 0}


def _written_bytes(args, kwargs, result) -> Dict:
    payload = args[3] if len(args) > 3 else kwargs["payload"]
    return {"bytes": len(payload)}


def _api_request(args, kwargs, result) -> Dict:
    request = args[1] if isinstance(args[1], dict) else {}
    return {"op": request.get("op"),
            "campaign": request.get("campaign") or result.get("campaign")}


def _client_call(op: str) -> Callable:
    def annotate(args, kwargs, result) -> Dict:
        campaign = result.campaign if op == "submit" else args[1]
        return {"op": op, "campaign": campaign}
    return annotate


def _poll(args, kwargs, result) -> Dict:
    return {"uid": args[1], "hit": result is not None}


def _claim(args, kwargs, result) -> Dict:
    return {"uid": args[1], "won": bool(result)}


def _unit(args, kwargs, result) -> Dict:
    return {"uid": args[0].uid, "kind": args[0].kind}


def _uid(args, kwargs, result) -> Dict:
    return {"uid": args[1]}


_CODECS = ("repro.store.serialize", "repro.store.store",
           "repro.store.campaign", "repro.service.execute")

#: (module, class or None, attribute, span name, annotate)
POINTS: Tuple[Tuple, ...] = (
    # tracing: gpusim simulation and event emit, per replica batch or run
    ("repro.tracing.replica", None, "record_grouped", "tracing.record",
     _grouped_counts),
    ("repro.tracing.recorder", "TraceRecorder", "record", "tracing.record",
     _single_counts),
    ("repro.adcfg.builder", "ADCFGBuilder", "fold_pending_batches",
     "adcfg.fold", None),
    ("repro.core.parallel", "TraceRecordingPool", "record_traces",
     "core.pool", None),
    ("repro.core.parallel", "TraceRecordingPool", "record_evidence",
     "core.pool", None),
    ("repro.core.evidence", "Evidence", "add_trace", "core.evidence_fold",
     None),
    ("repro.core.evidence", "Evidence", "add_trace_repeated",
     "core.evidence_fold", None),
    ("repro.core.evidence", "Evidence", "merge", "core.evidence_fold", None),
    ("repro.core.pipeline", "Owl", "record_traces", "core.phase", None),
    ("repro.core.pipeline", "Owl", "collect_evidence", "core.phase", None),
    ("repro.core.pipeline", None, "filter_traces", "core.filter", None),
    ("repro.core.adaptive", None, "evaluate_round", "core.look", None),
    ("repro.core.leakage", None, "align_evidence", "analysis.align", None),
    ("repro.analysis.multi", None, "align_evidence", "analysis.align", None),
    ("repro.core.leakage", None, "ks_test_batch", "analysis.ks",
     _request_count),
    ("repro.analysis.mi.analyzer", None, "mi_test_batch", "analysis.mi",
     _request_count),
    ("repro.core.pipeline", None, "run_analyzers", "analysis.run", None),
    ("repro.analysis.multi", None, "deferred_analysis", "analysis.run",
     None),
    ("repro.store.store", "TraceStore", "__init__", "store.open", None),
    ("repro.store.store", "TraceStore", "refresh", "store.refresh", None),
    ("repro.store.locks", "FileLock", "acquire", "store.lock_wait", None),
    ("repro.store.store", "TraceStore", "get_bytes", "store.read",
     _read_bytes),
    ("repro.store.store", "TraceStore", "put_bytes", "store.write",
     _written_bytes),
    *((module, None, attr, "store.decode", None) for module in _CODECS
      for attr in ("deserialize_trace", "deserialize_evidence")),
    *((module, None, attr, "store.encode", None) for module in _CODECS
      for attr in ("serialize_trace", "serialize_evidence")),
    ("repro.service.api", "ServiceAPI", "handle", "service.http",
     _api_request),
    *(("repro.service.client", "ServiceClient", op, "service.client",
       _client_call(op)) for op in ("submit", "status", "results")),
    ("repro.service.scheduler", "CampaignScheduler", "tick", "service.tick",
     None),
    ("repro.service.queue", "JobQueue", "enqueue", "service.enqueue", None),
    ("repro.service.queue", "JobQueue", "result", "service.poll", _poll),
    ("repro.service.queue", "JobQueue", "pending_units", "service.claim",
     None),
    ("repro.service.queue", "JobQueue", "claim", "service.claim", _claim),
    ("repro.service.worker", None, "execute_unit", "service.unit", _unit),
    ("repro.service.scheduler", None, "execute_unit", "service.unit", _unit),
    ("repro.service.execute", None, "materialize", "service.materialize",
     None),
    ("repro.service.queue", "JobQueue", "complete", "service.result_write",
     _uid),
)


def install(tracer: Tracer) -> None:
    """Wrap every point of :data:`POINTS` that exists in this build."""
    for module_name, class_name, attr, name, annotate in POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        if not hasattr(owner, attr):
            continue  # a codec module that does not import this name
        wrap(tracer, owner, attr, name, annotate)


def install_worker_idle(tracer: Tracer) -> None:
    """Time the worker loop's idle polls (``time.sleep`` in its module)."""
    import repro.service.worker as worker

    idle_time = types.ModuleType("time")
    idle_time.__dict__.update(time.__dict__)
    wrap(tracer, idle_time, "sleep", "service.idle")
    worker.time = idle_time


def install_server_idle(tracer: Tracer) -> None:
    """Time the server event loop's waits for I/O and its next tick."""
    import selectors

    wrap(tracer, selectors.DefaultSelector, "select", "service.idle")


# ----------------------------------------------------------------------
# merging dumps
# ----------------------------------------------------------------------

@dataclass
class Lane:
    """One thread whose window counts toward e2e time."""

    pid: int
    thread: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)


class SpanSet:
    """Spans of every traced process, cut to the lanes' windows.

    A root span (no parent) is kept when it lies wholly inside its
    thread's lane window, and a child is kept with its root; so the kept
    self times of one lane sum to exactly the time its kept roots cover.
    """

    def __init__(self, dumps: Sequence[Dict], lanes: Sequence[Lane]) -> None:
        self.lanes = list(lanes)
        by_thread = {(lane.pid, lane.thread): lane for lane in self.lanes}
        #: kept spans: dicts with name, start, end, self, attrs, parent
        #: name, pid, role
        self.spans: List[Dict] = []
        self.covered = {key: 0.0 for key in by_thread}
        for dump in dumps:
            raw = dump["spans"]
            child_time = [0.0] * len(raw)
            for span in raw:
                if span[PARENT] is not None:
                    child_time[span[PARENT]] += span[END] - span[START]
            for i, span in enumerate(raw):
                root = span
                while root[PARENT] is not None:
                    root = raw[root[PARENT]]
                lane = by_thread.get((dump["pid"], root[THREAD]))
                if lane is None or root[START] < lane.start \
                        or root[END] > lane.end:
                    continue
                duration = span[END] - span[START]
                if span[PARENT] is None:
                    self.covered[(lane.pid, lane.thread)] += duration
                parent = raw[span[PARENT]] if span[PARENT] is not None \
                    else None
                self.spans.append({
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "self": duration - child_time[i],
                    "attrs": span[ATTRS] or {}, "role": dump["role"],
                    "pid": dump["pid"],
                    "parent": parent[NAME] if parent else None})

    def named(self, name: str, role: Optional[str] = None) -> List[Dict]:
        return [span for span in self.spans if span["name"] == name
                and (role is None or span["role"] == role)]

    def self_seconds(self, name: str) -> float:
        return sum(span["self"] for span in self.named(name))

    def durations(self, name: str, **attrs) -> List[float]:
        return [span["end"] - span["start"] for span in self.named(name)
                if all(span["attrs"].get(k) == v for k, v in attrs.items())]

    @property
    def lane_seconds(self) -> float:
        return sum(lane.seconds for lane in self.lanes)

    @property
    def unattributed_seconds(self) -> float:
        return self.lane_seconds - sum(self.covered.values())
