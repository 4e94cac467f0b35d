"""A-DCFG node, edge, and graph types.

Structure (following §V-B of the paper):

* a :class:`Node` per basic block, extended with memory-access information:
  for the *j*-th visit of the block, one :class:`MemoryRecord` per memory
  instruction, each holding ``(normalised address -> access count)`` pairs
  aggregated over **all warps** — the de-duplication that keeps trace size
  bounded under massive threading;
* an :class:`Edge` per observed ``(src, dst)`` transition, with a traversal
  count and a histogram of the edge that *preceded* it (the "previous edge"
  attribute the paper stores for the leakage analysis — it is exactly what
  the per-node control-flow transition matrix of §VII-C is built from);
* multiple start/end points are allowed: the virtual :data:`START_LABEL` /
  :data:`END_LABEL` blocks absorb them, and unexecuted blocks simply never
  appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

#: Virtual predecessor of each warp's first basic block.
START_LABEL = "<START>"
#: Virtual successor of each warp's last basic block.
END_LABEL = "<END>"

#: A normalised memory location: (allocation label, byte offset).
AddressKey = Tuple[str, int]


@dataclass
class MemoryRecord:
    """Aggregated accesses of one memory instruction at one block visit.

    ``counts`` maps normalised addresses to the number of lanes (across all
    warps) that accessed them; ``space`` is the NVBit memory-space tag value
    and ``is_store`` distinguishes loads from stores.
    """

    space: int = 0
    is_store: bool = False
    counts: Dict[AddressKey, int] = field(default_factory=dict)

    def add(self, keys: Iterable[AddressKey]) -> None:
        """Count one access per key occurrence."""
        for key in keys:
            self.counts[key] = self.counts.get(key, 0) + 1

    def add_counts(self, keys: Sequence[AddressKey],
                   counts: Sequence[int]) -> None:
        """Bulk variant of :meth:`add`: fold pre-aggregated key counts.

        The batched fold collapses one instruction's address vector
        into unique keys with multiplicities and lands the result here in
        one call instead of one :meth:`add` per lane.  *keys* must not
        contain duplicates (the empty-record fast path folds them with a
        single ``dict`` construction); *counts* must be plain ints.
        """
        existing = self.counts
        if not existing:
            self.counts = dict(zip(keys, counts))
            return
        get = existing.get
        for key, count in zip(keys, counts):
            existing[key] = get(key, 0) + count

    def merge(self, other: "MemoryRecord", scale: int = 1) -> None:
        """Fold *other*'s counts into this record (*scale* repetitions)."""
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count * scale

    @property
    def total_accesses(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct_addresses(self) -> int:
        return len(self.counts)

    def copy(self) -> "MemoryRecord":
        return MemoryRecord(space=self.space, is_store=self.is_store,
                            counts=dict(self.counts))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemoryRecord):
            return NotImplemented
        return (self.space == other.space and self.is_store == other.is_store
                and self.counts == other.counts)


@dataclass
class Node:
    """One basic block with its attributed memory information.

    ``visits[j][i]`` is the aggregated :class:`MemoryRecord` of memory
    instruction *i* during the *j*-th visit of the block (the paper's
    ``m_j`` compilation across warps).
    """

    label: str
    entries: int = 0
    visits: List[List[MemoryRecord]] = field(default_factory=list)

    def record_entry(self, count: int = 1) -> None:
        self.entries += count

    def record_access(self, visit: int, instr: int, space: int,
                      is_store: bool, keys: Iterable[AddressKey]) -> None:
        """Aggregate one warp's accesses into slot ``(visit, instr)``."""
        while len(self.visits) <= visit:
            self.visits.append([])
        slot_list = self.visits[visit]
        while len(slot_list) <= instr:
            slot_list.append(MemoryRecord())
        record = slot_list[instr]
        if not record.counts:
            record.space = space
            record.is_store = is_store
        record.add(keys)

    def record_access_bulk(self, visit: int, instr: int, space: int,
                           is_store: bool, keys: Sequence[AddressKey],
                           counts: Sequence[int]) -> None:
        """Bulk :meth:`record_access`: fold pre-counted keys into a slot."""
        while len(self.visits) <= visit:
            self.visits.append([])
        slot_list = self.visits[visit]
        while len(slot_list) <= instr:
            slot_list.append(MemoryRecord())
        record = slot_list[instr]
        if not record.counts:
            record.space = space
            record.is_store = is_store
        record.add_counts(keys, counts)

    def iter_instructions(self):
        """Yield ``(visit, instr, record)`` for every non-empty slot."""
        for visit, slots in enumerate(self.visits):
            for instr, record in enumerate(slots):
                if record.total_accesses:
                    yield visit, instr, record

    @property
    def total_accesses(self) -> int:
        return sum(record.total_accesses
                   for _v, _i, record in self.iter_instructions())

    def copy(self) -> "Node":
        return Node(label=self.label, entries=self.entries,
                    visits=[[r.copy() for r in slots] for slots in self.visits])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (self.label == other.label and self.entries == other.entries
                and self.visits == other.visits)


@dataclass
class Edge:
    """One observed control-flow transition ``src -> dst``.

    ``prev_counts[k]`` counts how often the traversal was immediately
    preceded by edge ``k -> src`` (with :data:`START_LABEL` for warp entry).
    """

    src: str
    dst: str
    count: int = 0
    prev_counts: Dict[str, int] = field(default_factory=dict)

    def record(self, prev_src: str, count: int = 1) -> None:
        self.count += count
        self.prev_counts[prev_src] = self.prev_counts.get(prev_src, 0) + count

    def merge(self, other: "Edge", scale: int = 1) -> None:
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("cannot merge edges with different endpoints")
        self.count += other.count * scale
        for prev, count in other.prev_counts.items():
            self.prev_counts[prev] = (self.prev_counts.get(prev, 0)
                                      + count * scale)

    def copy(self) -> "Edge":
        return Edge(src=self.src, dst=self.dst, count=self.count,
                    prev_counts=dict(self.prev_counts))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.count == other.count
                and self.prev_counts == other.prev_counts)


class ADCFG:
    """One kernel invocation's attributed dynamic control-flow graph."""

    def __init__(self, kernel_identity: str, kernel_name: str = "",
                 total_threads: int = 0, num_warps: int = 0) -> None:
        self.kernel_identity = kernel_identity
        self.kernel_name = kernel_name or kernel_identity
        self.total_threads = total_threads
        self.num_warps = num_warps
        self.nodes: Dict[str, Node] = {}
        self.edges: Dict[Tuple[str, str], Edge] = {}
        # adjacency indexes: src -> [edges], dst -> [edges], maintained by
        # edge() so in_edges/out_edges are O(degree) instead of O(E) scans
        # (the transition-matrix construction queries them per node)
        self._out_index: Dict[str, List[Edge]] = {}
        self._in_index: Dict[str, List[Edge]] = {}
        self._indexed_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def node(self, label: str) -> Node:
        """Get or create the node for *label*."""
        found = self.nodes.get(label)
        if found is None:
            found = Node(label=label)
            self.nodes[label] = found
        return found

    def edge(self, src: str, dst: str) -> Edge:
        """Get or create the edge ``src -> dst``."""
        key = (src, dst)
        found = self.edges.get(key)
        if found is None:
            self._ensure_indexes()
            found = Edge(src=src, dst=dst)
            self.edges[key] = found
            self._out_index.setdefault(src, []).append(found)
            self._in_index.setdefault(dst, []).append(found)
            self._indexed_edges = len(self.edges)
        return found

    def _ensure_indexes(self) -> None:
        """Rebuild the adjacency indexes after out-of-band edge insertion.

        Deserialisation populates ``self.edges`` directly; a count mismatch
        detects that and triggers one O(E) rebuild, after which queries are
        O(degree) again.
        """
        if self._indexed_edges == len(self.edges):
            return
        self._out_index = {}
        self._in_index = {}
        for edge in self.edges.values():
            self._out_index.setdefault(edge.src, []).append(edge)
            self._in_index.setdefault(edge.dst, []).append(edge)
        self._indexed_edges = len(self.edges)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def in_edges(self, label: str) -> List[Edge]:
        self._ensure_indexes()
        return list(self._in_index.get(label, ()))

    def out_edges(self, label: str) -> List[Edge]:
        self._ensure_indexes()
        return list(self._out_index.get(label, ()))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def total_memory_accesses(self) -> int:
        return sum(node.total_accesses for node in self.nodes.values())

    def start_labels(self) -> List[str]:
        """Labels reached directly from warp entry (multiple allowed)."""
        return sorted({e.dst for e in self.out_edges(START_LABEL)})

    def end_labels(self) -> List[str]:
        """Labels from which warps exited (multiple allowed)."""
        return sorted({e.src for e in self.in_edges(END_LABEL)})

    def copy(self) -> "ADCFG":
        clone = ADCFG(kernel_identity=self.kernel_identity,
                      kernel_name=self.kernel_name,
                      total_threads=self.total_threads,
                      num_warps=self.num_warps)
        clone.nodes = {label: node.copy() for label, node in self.nodes.items()}
        clone.edges = {key: edge.copy() for key, edge in self.edges.items()}
        clone._ensure_indexes()
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, ADCFG):
            return NotImplemented
        return (self.kernel_identity == other.kernel_identity
                and self.nodes == other.nodes
                and self.edges == other.edges)

    def __repr__(self) -> str:
        return (f"ADCFG({self.kernel_identity!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges}, "
                f"accesses={self.total_memory_accesses})")
