"""Compact binary (de)serialisation of A-DCFGs.

Two jobs:

* persistence — traces are recorded once and analysed many times, so the
  graphs must round-trip losslessly;
* **trace-size accounting** — Fig. 5 and Table IV of the paper report trace
  sizes; :func:`adcfg_size_bytes` measures the serialised footprint, which is
  the honest equivalent of the paper's on-disk trace size.

Format (little-endian, versioned):

``magic "ADCF" | u16 version | u32 threads | u32 warps |``
``string table (u32 count, then u16 length + UTF-8 each) |``
``u32 identity-index | u32 name-index |``
``nodes (label, entries, visits -> instrs -> (space, is_store, pairs)) |``
``edges (src, dst, count, prev histogram)``
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.adcfg.graph import ADCFG, Edge, MemoryRecord, Node
# canonical definition lives in repro.errors (shared hierarchy); this module
# remains its historical import location
from repro.errors import SerializationError

_MAGIC = b"ADCF"
_VERSION = 1


class Writer:
    """Little-endian struct writer shared by the binary trace formats."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def pack(self, fmt: str, *values) -> None:
        self._chunks.append(struct.pack("<" + fmt, *values))

    def raw(self, data: bytes) -> None:
        self._chunks.append(data)

    def string(self, value: str) -> None:
        """Length-prefixed UTF-8 string (u32 length)."""
        encoded = value.encode("utf-8")
        self.pack("I", len(encoded))
        self.raw(encoded)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """Bounds-checked reader: every short read raises SerializationError.

    The store loads these payloads from disk, where they count as untrusted
    bytes (partial writes, bit rot), so besides truncation checks the reader
    offers :meth:`ensure_capacity` to reject absurd declared element counts
    *before* looping over them or allocating for them.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def unpack(self, fmt: str) -> Tuple:
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        if self._pos + size > len(self._data):
            raise SerializationError("truncated payload")
        values = struct.unpack_from(fmt, self._data, self._pos)
        self._pos += size
        return values

    def raw(self, size: int) -> bytes:
        if size < 0 or self._pos + size > len(self._data):
            raise SerializationError("truncated payload")
        chunk = self._data[self._pos:self._pos + size]
        self._pos += size
        return chunk

    def string(self) -> str:
        """Length-prefixed UTF-8 string (u32 length)."""
        (length,) = self.unpack("I")
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as error:
            raise SerializationError(
                f"malformed UTF-8 string: {error}") from error

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def ensure_capacity(self, count: int, min_size: int, what: str) -> int:
        """Reject a declared element count that cannot possibly fit.

        Each element of *what* occupies at least *min_size* encoded bytes;
        a corrupt count field claiming more elements than the remaining
        payload could hold must fail here, not after a giant allocation or
        a billion-iteration parse loop.
        """
        if count < 0 or count * min_size > self.remaining:
            raise SerializationError(
                f"declared {count} {what} exceed the {self.remaining} "
                f"remaining payload bytes")
        return count

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


#: Backwards-compatible aliases (pre-store internal names).
_Writer = Writer
_Reader = Reader


def _collect_strings(graph: ADCFG) -> List[str]:
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


def serialize_adcfg(graph: ADCFG) -> bytes:
    """Serialise *graph* to bytes."""
    table = _collect_strings(graph)
    index: Dict[str, int] = {s: i for i, s in enumerate(table)}

    w = Writer()
    w.raw(_MAGIC)
    w.pack("HII", _VERSION, graph.total_threads, graph.num_warps)

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


def _lookup(table: List[str], index: int) -> str:
    """String-table access with validation (corrupt payloads carry
    out-of-range indices; they must surface as SerializationError)."""
    if not 0 <= index < len(table):
        raise SerializationError(
            f"string index {index} outside table of {len(table)} entries")
    return table[index]


def deserialize_adcfg(data: bytes) -> ADCFG:
    """Reconstruct an :class:`ADCFG` from :func:`serialize_adcfg` output.

    Every malformed input — short reads, out-of-range table indices,
    implausible element counts — raises :class:`SerializationError`; the
    store feeds this function bytes straight from disk, so a corrupt blob
    must never surface as a bare ``struct.error`` or ``IndexError``.
    """
    try:
        return _deserialize_adcfg_unchecked(data)
    except SerializationError:
        raise
    except (struct.error, IndexError, KeyError, OverflowError,
            MemoryError) as error:
        # belt-and-braces: the explicit checks below should make this
        # unreachable, but a corrupt payload must never escape as a bare
        # parsing exception
        raise SerializationError(
            f"malformed A-DCFG payload: {error}") from error


def _deserialize_adcfg_unchecked(data: bytes) -> ADCFG:
    r = Reader(data)
    if r.raw(4) != _MAGIC:
        raise SerializationError("bad magic: not an A-DCFG payload")
    version, total_threads, num_warps = r.unpack("HII")
    if version != _VERSION:
        raise SerializationError(f"unsupported A-DCFG version {version}")

    (table_len,) = r.unpack("I")
    r.ensure_capacity(table_len, 2, "string-table entries")
    table: List[str] = []
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


# Serialised bytes of the format's fixed part and of each element, from
# the struct formats :func:`serialize_adcfg` writes (little-endian, no
# padding); :func:`size_from_counts` adds them up.
#: magic, then (version, threads, warps), string-table count, (identity,
#: name) indices and (node, edge) counts
HEADER_BYTES = len(_MAGIC) + struct.calcsize("<HII" "I" "II" "II")
#: a string-table entry's u16 length, before its UTF-8 bytes
STRING_PREFIX_BYTES = struct.calcsize("<H")
NODE_BYTES = struct.calcsize("<IQI")         # label, entries, visits
VISIT_BYTES = struct.calcsize("<I")          # record count
RECORD_BYTES = struct.calcsize("<BBI")       # space, is_store, pairs
PAIR_BYTES = struct.calcsize("<IqQ")         # label, offset, count
EDGE_BYTES = struct.calcsize("<IIQI")        # src, dst, count, preds
PREDECESSOR_BYTES = struct.calcsize("<IQ")   # label, count


def string_entry_bytes(value: str) -> int:
    """Serialised bytes of one string-table entry."""
    return STRING_PREFIX_BYTES + len(value.encode("utf-8"))


def size_from_counts(string_bytes, nodes, visits, records, pairs, edges,
                     predecessors):
    """Serialised size of a graph with these element counts.

    *string_bytes* sums :func:`string_entry_bytes` over the string table.
    Plain arithmetic, so NumPy arrays of counts give every graph's size at
    once.
    """
    return (HEADER_BYTES + string_bytes + NODE_BYTES * nodes
            + VISIT_BYTES * visits + RECORD_BYTES * records
            + PAIR_BYTES * pairs + EDGE_BYTES * edges
            + PREDECESSOR_BYTES * predecessors)


def adcfg_size_bytes(graph: ADCFG) -> int:
    """Serialised size of *graph* (trace-size accounting for Fig. 5).

    Computed analytically from the element counts — the format is fixed
    little-endian with no padding, so the size is fully determined without
    materialising the payload.  Always equals
    ``len(serialize_adcfg(graph))`` (asserted by the serialisation tests);
    the recording pool sizes every trace it touches, which made the
    build-and-discard serialisation a measurable slice of replica-batched
    recording.
    """
    visits = records = pairs = 0
    for node in graph.nodes.values():
        visits += len(node.visits)
        for slots in node.visits:
            records += len(slots)
            for record in slots:
                pairs += len(record.counts)
    return size_from_counts(
        sum(map(string_entry_bytes, _collect_strings(graph))),
        len(graph.nodes), visits, records, pairs, len(graph.edges),
        sum(len(edge.prev_counts) for edge in graph.edges.values()))
