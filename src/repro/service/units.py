"""Durable work units: the currency of the detection service.

One submitted campaign decomposes into a DAG of small, restartable JSON
specs — per-input trace jobs, one filter/plan job, per-chunk evidence
jobs and one decide job for each look of the campaign's schedule, one
report job — that any worker process can execute given only the shared
:class:`~repro.store.store.TraceStore`.  Units reference programs *by
name* through :mod:`repro.apps.registry`, so a spec is re-materialisable
anywhere; all heavy payloads (traces, evidence, reports) travel through
the store, and a unit's queue result carries only accounting.

Determinism is inherited, not re-implemented: an evidence unit re-derives
its run inputs from ``np.random.default_rng(config.seed)`` exactly as
``Owl.detect``'s phase 3 does and records the slice ``[start, stop)``, so
any ``unit_runs`` partition folds — through the associative
:meth:`~repro.core.evidence.Evidence.merge`, in chunk order — to the
bytes one in-process ``Owl.detect`` would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Unit kinds, in stage order.
KIND_TRACE = "trace"
KIND_PLAN = "plan"
KIND_EVIDENCE = "evidence"
KIND_DECIDE = "decide"
KIND_REPORT = "report"

#: Stage machine: which kinds a campaign schedules, in which order
#: (``evidence`` and ``decide`` repeat once per look).
STAGES = (KIND_TRACE, KIND_PLAN, KIND_EVIDENCE, KIND_DECIDE, KIND_REPORT)


@dataclass
class WorkUnit:
    """One durable job: ``(campaign spec, kind, coordinates)``.

    ``spec`` is the campaign identity every unit carries — the workload
    name and the ``OwlConfig`` dict — and ``params`` the kind-specific
    coordinates (input indices, run slice, chunk ordinals).  ``attempts``
    counts fleet dispatches; the scheduler bumps it on every re-queue and
    degrades the unit to in-process execution past the budget.
    """

    uid: str
    kind: str
    campaign: str
    spec: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    attempts: int = 0

    def to_dict(self) -> Dict:
        return {"uid": self.uid, "kind": self.kind,
                "campaign": self.campaign, "spec": dict(self.spec),
                "params": dict(self.params), "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkUnit":
        return cls(uid=str(data["uid"]), kind=str(data["kind"]),
                   campaign=str(data["campaign"]),
                   spec=dict(data.get("spec", {})),
                   params=dict(data.get("params", {})),
                   attempts=int(data.get("attempts", 0)))


# ----------------------------------------------------------------------
# unit builders (the scheduler's decomposition)
# ----------------------------------------------------------------------


def trace_units(cid: str, spec: Dict, num_inputs: int) -> List[WorkUnit]:
    """One phase-1 unit per user input (each records + persists a trace)."""
    return [WorkUnit(uid=f"{cid}.trace.{index:04d}", kind=KIND_TRACE,
                     campaign=cid, spec=spec, params={"index": index})
            for index in range(num_inputs)]


def plan_unit(cid: str, spec: Dict, num_inputs: int) -> WorkUnit:
    """The phase-2 unit: filter cached traces, pick representatives."""
    return WorkUnit(uid=f"{cid}.plan", kind=KIND_PLAN, campaign=cid,
                    spec=spec, params={"num_inputs": num_inputs})


def round_chunk_offsets(boundaries, unit_runs: int) -> List[int]:
    """Cumulative chunk ordinals at each look's replica boundary.

    ``offsets[r]`` is the first chunk ordinal of round ``r``'s slice and
    ``offsets[r + 1]`` the total number of chunks once round ``r`` has
    recorded.  Round slices are partitioned by ``unit_runs`` *within*
    each round, so the partition always respects round boundaries: no
    unit ever spans an interim look.
    """
    offsets = [0]
    previous = 0
    for boundary in boundaries:
        runs = boundary - previous
        offsets.append(offsets[-1] + (runs + unit_runs - 1) // unit_runs)
        previous = boundary
    return offsets


def round_evidence_units(cid: str, spec: Dict, side: str, rep_index: int,
                         start: int, stop: int, unit_runs: int,
                         first_chunk: int) -> List[WorkUnit]:
    """Evidence units for one round's slice ``[start, stop)`` of a side.

    ``rep_index`` indexes the campaign's input list for the fixed side
    and is ``-1`` for the shared random side.  Chunk ordinals continue
    sequentially across rounds (via *first_chunk* from
    :func:`round_chunk_offsets`), so the decide unit merges every round
    recorded so far in one deterministic order.
    """
    units = []
    chunk = first_chunk
    for chunk_start in range(start, stop, unit_runs):
        chunk_stop = min(chunk_start + unit_runs, stop)
        units.append(WorkUnit(
            uid=f"{cid}.evidence.{side}.{rep_index}.{chunk:04d}",
            kind=KIND_EVIDENCE, campaign=cid, spec=spec,
            params={"side": side, "rep_index": rep_index, "chunk": chunk,
                    "start": chunk_start, "stop": chunk_stop}))
        chunk += 1
    return units


def decide_unit(cid: str, spec: Dict, round_index: int,
                rep_indices: List[int], fixed_chunks: int,
                random_chunks: int) -> WorkUnit:
    """One look: merge every side's chunks to the round boundary into a
    checkpoint (or, at the final look, completed evidence) and decide
    stop-vs-continue."""
    return WorkUnit(uid=f"{cid}.decide.{round_index:02d}",
                    kind=KIND_DECIDE, campaign=cid, spec=spec,
                    params={"round": round_index,
                            "rep_indices": list(rep_indices),
                            "fixed_chunks": fixed_chunks,
                            "random_chunks": random_chunks})


def report_unit(cid: str, spec: Dict, num_inputs: int) -> WorkUnit:
    """The terminal unit: ``Owl.detect`` against the pre-warmed store."""
    return WorkUnit(uid=f"{cid}.report", kind=KIND_REPORT, campaign=cid,
                    spec=spec, params={"num_inputs": num_inputs})
