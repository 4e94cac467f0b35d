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

The store keeps one A-DCFG codec, which packs each memory record in one
``struct`` call; :func:`reference_serialize_adcfg` and
:func:`reference_deserialize_adcfg` are the v1 format written and read one
element at a time, the byte-for-byte oracle of that codec
(:func:`assert_matches_reference`).
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from repro.adcfg.graph import ADCFG, Edge, MemoryRecord, Node
from repro.adcfg.serialize import (
    Reader, SerializationError, Writer, deserialize_adcfg, serialize_adcfg)
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

#: the v1 A-DCFG payload's magic and version
ADCFG_MAGIC = b"ADCF"
ADCFG_VERSION = 1


def _reference_strings(graph):
    strings = {graph.kernel_identity, graph.kernel_name}
    strings.update(graph.nodes.keys())
    for (src, dst), edge in graph.edges.items():
        strings.add(src)
        strings.add(dst)
        strings.update(edge.prev_counts.keys())
    for node in graph.nodes.values():
        for _visit, _instr, record in node.iter_instructions():
            for label, _offset in record.counts:
                strings.add(label)
    return sorted(strings)


def _lookup(table, index):
    if not 0 <= index < len(table):
        raise SerializationError(
            f"string index {index} outside table of {len(table)} entries")
    return table[index]


def reference_serialize_adcfg(graph):
    """The v1 A-DCFG payload of *graph*, one ``struct`` call per element."""
    table = _reference_strings(graph)
    index = {s: i for i, s in enumerate(table)}

    w = Writer()
    w.raw(ADCFG_MAGIC)
    w.pack("HII", ADCFG_VERSION, graph.total_threads, graph.num_warps)

    w.pack("I", len(table))
    for s in table:
        encoded = s.encode("utf-8")
        w.pack("H", len(encoded))
        w.raw(encoded)

    w.pack("II", index[graph.kernel_identity], index[graph.kernel_name])

    w.pack("I", len(graph.nodes))
    for label in sorted(graph.nodes):
        node = graph.nodes[label]
        w.pack("IQI", index[label], node.entries, len(node.visits))
        for slots in node.visits:
            w.pack("I", len(slots))
            for record in slots:
                w.pack("BBI", record.space, int(record.is_store),
                       len(record.counts))
                for (alloc_label, offset) in sorted(record.counts):
                    w.pack("IqQ", index[alloc_label], offset,
                           record.counts[(alloc_label, offset)])

    w.pack("I", len(graph.edges))
    for (src, dst) in sorted(graph.edges):
        edge = graph.edges[(src, dst)]
        w.pack("IIQI", index[src], index[dst], edge.count,
               len(edge.prev_counts))
        for prev in sorted(edge.prev_counts):
            w.pack("IQ", index[prev], edge.prev_counts[prev])

    return w.getvalue()


def reference_deserialize_adcfg(data):
    """Inverse of :func:`reference_serialize_adcfg`, one element at a
    time (raises ``SerializationError`` on a malformed payload)."""
    r = Reader(data)
    if r.raw(4) != ADCFG_MAGIC:
        raise SerializationError("bad magic: not an A-DCFG payload")
    version, total_threads, num_warps = r.unpack("HII")
    if version != ADCFG_VERSION:
        raise SerializationError(f"unsupported A-DCFG version {version}")

    (table_len,) = r.unpack("I")
    r.ensure_capacity(table_len, 2, "string-table entries")
    table = []
    for _ in range(table_len):
        (str_len,) = r.unpack("H")
        try:
            table.append(r.raw(str_len).decode("utf-8"))
        except UnicodeDecodeError as error:
            raise SerializationError(
                f"malformed UTF-8 in string table: {error}") from error

    identity_idx, name_idx = r.unpack("II")
    graph = ADCFG(kernel_identity=_lookup(table, identity_idx),
                  kernel_name=_lookup(table, name_idx),
                  total_threads=total_threads, num_warps=num_warps)

    (num_nodes,) = r.unpack("I")
    r.ensure_capacity(num_nodes, 16, "nodes")
    for _ in range(num_nodes):
        label_idx, entries, num_visits = r.unpack("IQI")
        r.ensure_capacity(num_visits, 4, "node visits")
        node = Node(label=_lookup(table, label_idx), entries=entries)
        for _v in range(num_visits):
            (num_instrs,) = r.unpack("I")
            r.ensure_capacity(num_instrs, 6, "memory instructions")
            slots = []
            for _i in range(num_instrs):
                space, is_store, num_pairs = r.unpack("BBI")
                r.ensure_capacity(num_pairs, 20, "access-count pairs")
                record = MemoryRecord(space=space, is_store=bool(is_store))
                for _p in range(num_pairs):
                    alloc_idx, offset, count = r.unpack("IqQ")
                    record.counts[(_lookup(table, alloc_idx), offset)] = count
                slots.append(record)
            node.visits.append(slots)
        graph.nodes[node.label] = node

    (num_edges,) = r.unpack("I")
    r.ensure_capacity(num_edges, 20, "edges")
    for _ in range(num_edges):
        src_idx, dst_idx, count, num_prev = r.unpack("IIQI")
        r.ensure_capacity(num_prev, 12, "predecessor counts")
        edge = Edge(src=_lookup(table, src_idx),
                    dst=_lookup(table, dst_idx), count=count)
        for _p in range(num_prev):
            prev_idx, prev_count = r.unpack("IQ")
            edge.prev_counts[_lookup(table, prev_idx)] = prev_count
        graph.edges[(edge.src, edge.dst)] = edge

    if not r.exhausted:
        raise SerializationError("trailing bytes after A-DCFG payload")
    return graph


def ordered(graph):
    """*graph* with every map as a list in insertion order: ``==`` on
    dicts ignores order, but warm ≡ cold relies on it."""
    return (graph.kernel_identity, graph.kernel_name, graph.total_threads,
            graph.num_warps,
            [(label, node.label, node.entries,
              [[(record.space, record.is_store, list(record.counts.items()))
                for record in slots] for slots in node.visits])
             for label, node in graph.nodes.items()],
            [(key, edge.src, edge.dst, edge.count,
              list(edge.prev_counts.items()))
             for key, edge in graph.edges.items()])


def assert_matches_reference(graph):
    """The codec writes the per-element reference's v1 bytes and reads
    them back to the same values in the same insertion orders."""
    payload = reference_serialize_adcfg(graph)
    assert serialize_adcfg(graph) == payload
    assert ordered(deserialize_adcfg(payload)) == \
        ordered(reference_deserialize_adcfg(payload))
