"""A GPU cache-hierarchy model for the memory side of the threat model.

§IV-B grants the attacker fine-grained observation of "the memory hierarchy
(e.g., caches)".  This module makes that concrete: a set-associative LRU
cache (L1 per the Ampere description in §II-A, L2 shared) that consumes the
simulator's per-warp memory batches and exposes

* hit/miss/cycle statistics per kernel (the timing side channel), and
* the set of cache lines touched per allocation (the access-pattern side
  channel a Prime+Probe/Flush+Reload attacker reconstructs).

The cycle costs are order-of-magnitude NVIDIA numbers; only their ordering
matters to the experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.gpusim.events import (
    KernelBeginEvent,
    KernelEndEvent,
    MemoryBatchEvent,
    TraceEvent,
)
from repro.gpusim.memory import DeviceMemory

#: approximate latencies (cycles) per service level
L1_HIT_CYCLES = 28
L2_HIT_CYCLES = 190
DRAM_CYCLES = 475


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    line_size: int = 64
    num_sets: int = 64
    associativity: int = 4

    @property
    def capacity_bytes(self) -> int:
        return self.line_size * self.num_sets * self.associativity

    def set_index(self, address: int) -> int:
        return (address // self.line_size) % self.num_sets

    def tag(self, address: int) -> int:
        return address // (self.line_size * self.num_sets)

    def line_address(self, address: int) -> int:
        return (address // self.line_size) * self.line_size


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        # per set: tag -> None, ordered by recency (oldest first)
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.config.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch *address*; returns True on a hit."""
        index = self.config.set_index(address)
        tag = self.config.tag(address)
        entries = self._sets[index]
        if tag in entries:
            entries.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        entries[tag] = None
        if len(entries) > self.config.associativity:
            entries.popitem(last=False)  # evict LRU
        return False

    def contains(self, address: int) -> bool:
        """Non-destructive lookup (an idealised probe)."""
        index = self.config.set_index(address)
        return self.config.tag(address) in self._sets[index]

    def flush(self) -> None:
        for entries in self._sets:
            entries.clear()
        # statistics survive a flush; reset them explicitly if needed

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def resident_set_occupancy(self) -> List[int]:
        """Lines resident per set (what a priming attacker displaces)."""
        return [len(entries) for entries in self._sets]


class CacheHierarchy:
    """L1 → L2 → DRAM with additive-latency accounting."""

    def __init__(self, l1: Optional[CacheConfig] = None,
                 l2: Optional[CacheConfig] = None) -> None:
        self.l1 = SetAssociativeCache(l1 or CacheConfig())
        self.l2 = SetAssociativeCache(
            l2 or CacheConfig(line_size=64, num_sets=512, associativity=8))

    def access(self, address: int) -> Tuple[str, int]:
        """Service one address: returns ``(level, cycles)``."""
        if self.l1.access(address):
            return "L1", L1_HIT_CYCLES
        if self.l2.access(address):
            return "L2", L2_HIT_CYCLES
        return "DRAM", DRAM_CYCLES

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()


@dataclass
class KernelCacheStats:
    """Cache behaviour of one kernel launch."""

    kernel_name: str
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0
    cycles: int = 0
    #: per allocation label: set of line-granular offsets touched
    lines_touched: Dict[str, Set[int]] = field(default_factory=dict)

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.accesses if self.accesses else 0.0

    def touched(self, label: str) -> Set[int]:
        return set(self.lines_touched.get(label, set()))


class CacheSimulator:
    """Feeds a device's memory events through a cache hierarchy.

    Subscribe to a device (``device.subscribe(sim.on_event)``) before
    launching; per-launch statistics accumulate in :attr:`per_kernel`.
    When constructed with the device's :class:`DeviceMemory`, touched lines
    are additionally recorded as (allocation label, line offset) — the
    attacker's normalised view.
    """

    def __init__(self, memory: Optional[DeviceMemory] = None,
                 hierarchy: Optional[CacheHierarchy] = None,
                 flush_between_kernels: bool = True) -> None:
        self.hierarchy = hierarchy or CacheHierarchy()
        self._memory = memory
        self._flush_between = flush_between_kernels
        self.per_kernel: List[KernelCacheStats] = []
        self._current: Optional[KernelCacheStats] = None

    @property
    def line_size(self) -> int:
        return self.hierarchy.l1.config.line_size

    def on_event(self, event: TraceEvent) -> None:
        if isinstance(event, KernelBeginEvent):
            if self._flush_between:
                self.hierarchy.flush()
            self._current = KernelCacheStats(kernel_name=event.kernel_name)
            self.per_kernel.append(self._current)
        elif isinstance(event, KernelEndEvent):
            self._current = None
        elif isinstance(event, MemoryBatchEvent):
            if self._current is None:
                return
            # a batch's addresses are its instructions' lanes in issue
            # order, so the hierarchy sees the order the warp issued them
            for address in event.addresses.tolist():
                level, cycles = self.hierarchy.access(address)
                self._current.accesses += 1
                self._current.cycles += cycles
                if level == "L1":
                    self._current.l1_hits += 1
                elif level == "L2":
                    self._current.l2_hits += 1
                else:
                    self._current.dram_accesses += 1
                self._record_line(address)

    def _record_line(self, address: int) -> None:
        if self._memory is None or self._current is None:
            return
        try:
            allocation, offset = self._memory.resolve(address)
        except Exception:
            return
        line_offset = (offset // self.line_size) * self.line_size
        lines = self._current.lines_touched.setdefault(allocation.label,
                                                       set())
        lines.add(line_offset)

    def total_cycles(self) -> int:
        return sum(stats.cycles for stats in self.per_kernel)

    def stats_for(self, kernel_name: str) -> List[KernelCacheStats]:
        return [stats for stats in self.per_kernel
                if stats.kernel_name == kernel_name]
