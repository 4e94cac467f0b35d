"""Evidence collection (§VII-A).

Repeated executions (fixed inputs on one side, random inputs on the other)
are merged into a single *evidence* object per side:

1. each new trace's kernel-invocation sequence is aligned against the
   evidence with the Myers algorithm;
2. aligned (identical-identity) invocations increment the slot's invocation
   record and their A-DCFGs are merged — the same aggregation used when
   folding warps during recording;
3. unaligned invocations become new slots, marked absent in all earlier runs.

The per-run presence vectors are what the kernel-leakage test consumes
(an input-*independent* nondeterministic launch is present in ~the same
fraction of fixed and random runs and therefore passes the distribution
test); the merged A-DCFGs provide the pooled control-flow and data-flow
histograms for the device-leakage tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.adcfg.graph import ADCFG
from repro.adcfg.merge import merge_adcfg_into
from repro.core.alignment import EditOp, myers_diff
from repro.errors import ConfigError
from repro.tracing.recorder import ProgramTrace


@dataclass
class EvidenceSlot:
    """One aligned kernel-invocation position across repeated runs.

    ``per_run_graphs`` is only populated when the evidence is built with
    ``keep_per_run=True`` (the strict per-run sampling mode): one A-DCFG
    per run, ``None`` for runs where the invocation was absent.
    """

    identity: str
    kernel_name: str
    per_run_present: List[bool]
    adcfg: ADCFG
    per_run_graphs: Optional[List[Optional[ADCFG]]] = None

    @property
    def total_count(self) -> int:
        return sum(self.per_run_present)

    def presence_histogram(self) -> dict:
        """Weighted histogram {0: absent-runs, 1: present-runs}."""
        present = self.total_count
        absent = len(self.per_run_present) - present
        hist = {}
        if absent:
            hist[0] = absent
        if present:
            hist[1] = present
        return hist


class Evidence:
    """Merged statistical view of one side's repeated executions.

    With ``keep_per_run=True`` each slot additionally retains the
    individual per-run A-DCFGs so features can be sampled *per run*
    (DESIGN.md §6's strict mode) instead of pooled — costlier in memory
    (O(runs) graphs) but immune to the correlated-lane over-dispersion of
    pooled counts.
    """

    def __init__(self, keep_per_run: bool = False) -> None:
        self.slots: List[EvidenceSlot] = []
        self.num_runs = 0
        self.keep_per_run = keep_per_run

    @classmethod
    def from_traces(cls, traces: Iterable[ProgramTrace],
                    keep_per_run: bool = False) -> "Evidence":
        evidence = cls(keep_per_run=keep_per_run)
        for trace in traces:
            evidence.add_trace(trace)
        return evidence

    @property
    def identity_sequence(self) -> List[str]:
        return [slot.identity for slot in self.slots]

    def add_trace(self, trace: ProgramTrace) -> None:
        """Fold one run's trace into the evidence (§VII-A steps 1–3)."""
        script = myers_diff(self.identity_sequence, trace.kernel_sequence)
        new_slots: List[EvidenceSlot] = []
        for step in script:
            if step.op is EditOp.EQUAL:
                slot = self.slots[step.a_index]
                invocation = trace.invocations[step.b_index]
                slot.per_run_present.append(True)
                merge_adcfg_into(slot.adcfg, invocation.adcfg)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.append(invocation.adcfg.copy())
                new_slots.append(slot)
            elif step.op is EditOp.DELETE:
                slot = self.slots[step.a_index]
                slot.per_run_present.append(False)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.append(None)
                new_slots.append(slot)
            else:  # INSERT: invocation unseen in all previous runs
                invocation = trace.invocations[step.b_index]
                new_slots.append(EvidenceSlot(
                    identity=invocation.identity,
                    kernel_name=invocation.kernel_name,
                    per_run_present=[False] * self.num_runs + [True],
                    adcfg=invocation.adcfg.copy(),
                    per_run_graphs=(
                        [None] * self.num_runs + [invocation.adcfg.copy()]
                        if self.keep_per_run else None)))
        self.slots = new_slots
        self.num_runs += 1

    def add_segment(self, first: ProgramTrace, runs: int,
                    rest: Optional[Sequence[Sequence[Tuple[ADCFG, int]]]]
                    = None) -> None:
        """Fold *runs* consecutive runs that share *first*'s kernel sequence.

        Exactly equivalent to calling :meth:`add_trace` once per run.  The
        first run *is* *first* and folds as :meth:`add_trace` folds it.
        After that fold the kernel sequence is a subsequence of the
        identity sequence, so each remaining run's script against the
        evidence has only EQUAL and DELETE steps; none changes the slot
        order, so it is one script for all of them — the *second*
        alignment, taken against the slots the first fold left (the first
        run's own script also inserts slots, so it cannot be reused).  The
        remaining runs fold as one step along it: every merged attribute
        is an additive count.

        ``rest[p]`` lists ``(graph, scale)`` pairs whose scaled sum is the
        remaining runs' graphs at kernel position *p*.  They merge in
        order, so a run order kept across the pairs puts every node, edge
        and key at the place the per-run folds give it.  ``None`` means the
        remaining runs repeat *first* (deduplicated equal inputs) — the
        only form per-run evidence accepts, since it keeps each run's
        graphs.
        """
        if runs < 1:
            raise ConfigError(f"repetition count must be >= 1, got {runs}")
        if rest is not None and self.keep_per_run:
            raise ConfigError(
                "per-run evidence keeps every run's graphs: fold the runs "
                "with add_trace")
        self.add_trace(first)
        remaining = runs - 1
        if remaining == 0:
            return
        graphs = [invocation.adcfg for invocation in first.invocations]
        if rest is None:
            rest = [[(graph, remaining)] for graph in graphs]
        script = myers_diff(self.identity_sequence, first.kernel_sequence)
        for step in script:
            if step.op is EditOp.INSERT:
                raise AssertionError(
                    "a kernel sequence aligned with an INSERT right after "
                    "its own fold")
            slot = self.slots[step.a_index]
            if step.op is EditOp.EQUAL:
                slot.per_run_present.extend([True] * remaining)
                for graph, scale in rest[step.b_index]:
                    merge_adcfg_into(slot.adcfg, graph, scale=scale)
                if slot.per_run_graphs is not None:
                    graph = graphs[step.b_index]
                    slot.per_run_graphs.extend(
                        graph.copy() for _ in range(remaining))
            else:  # DELETE
                slot.per_run_present.extend([False] * remaining)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend([None] * remaining)
        self.num_runs += remaining

    def merge(self, other: "Evidence") -> "Evidence":
        """Fold *other* — a later block of runs — into this evidence.

        The parallel recording backend folds each worker's chunk of runs
        into a partial evidence and merges the partials in chunk order;
        this is the chunk-level analogue of :meth:`add_trace`: slots are
        Myers-aligned by identity, aligned slots concatenate their per-run
        presence vectors (run order is preserved because chunks are
        contiguous and merged left-to-right) and aggregate their A-DCFGs,
        unaligned slots are padded with absent runs on the missing side.

        *other* is consumed: its slots may be adopted wholesale, so it must
        not be used afterwards.
        """
        if self.keep_per_run != other.keep_per_run:
            raise ConfigError(
                "cannot merge evidences with different keep_per_run modes")
        script = myers_diff(self.identity_sequence, other.identity_sequence)
        new_slots: List[EvidenceSlot] = []
        for step in script:
            if step.op is EditOp.EQUAL:
                slot = self.slots[step.a_index]
                other_slot = other.slots[step.b_index]
                slot.per_run_present.extend(other_slot.per_run_present)
                merge_adcfg_into(slot.adcfg, other_slot.adcfg)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend(other_slot.per_run_graphs or [])
                new_slots.append(slot)
            elif step.op is EditOp.DELETE:
                slot = self.slots[step.a_index]
                slot.per_run_present.extend([False] * other.num_runs)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend([None] * other.num_runs)
                new_slots.append(slot)
            else:  # INSERT: slot unseen in this evidence's runs
                other_slot = other.slots[step.b_index]
                other_slot.per_run_present = (
                    [False] * self.num_runs + other_slot.per_run_present)
                if other_slot.per_run_graphs is not None:
                    other_slot.per_run_graphs = (
                        [None] * self.num_runs + other_slot.per_run_graphs)
                new_slots.append(other_slot)
        self.slots = new_slots
        self.num_runs += other.num_runs
        return self

    def slot_by_identity(self, identity: str) -> Optional[EvidenceSlot]:
        """First slot with the given identity (None when absent)."""
        for slot in self.slots:
            if slot.identity == identity:
                return slot
        return None

    def __repr__(self) -> str:
        return f"Evidence(runs={self.num_runs}, slots={len(self.slots)})"


@dataclass(frozen=True)
class AlignedSlotPair:
    """One position of the fixed/random evidence alignment."""

    fixed: Optional[EvidenceSlot]
    random: Optional[EvidenceSlot]

    @property
    def aligned(self) -> bool:
        return self.fixed is not None and self.random is not None

    @property
    def identity(self) -> str:
        slot = self.fixed if self.fixed is not None else self.random
        assert slot is not None
        return slot.identity


def align_evidence(fixed: Evidence, random: Evidence) -> List[AlignedSlotPair]:
    """Myers-align the two evidences' slot sequences for the leakage test."""
    script = myers_diff(fixed.identity_sequence, random.identity_sequence)
    pairs: List[AlignedSlotPair] = []
    for step in script:
        if step.op is EditOp.EQUAL:
            pairs.append(AlignedSlotPair(fixed=fixed.slots[step.a_index],
                                         random=random.slots[step.b_index]))
        elif step.op is EditOp.DELETE:
            pairs.append(AlignedSlotPair(fixed=fixed.slots[step.a_index],
                                         random=None))
        else:
            pairs.append(AlignedSlotPair(fixed=None,
                                         random=random.slots[step.b_index]))
    return pairs
