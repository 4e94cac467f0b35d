"""Durable work units: the currency of the detection service.

One submitted campaign decomposes into a DAG of small, restartable JSON
specs — one plan job (phase 1's trace recording and phase 2's filter),
then evidence jobs over ``unit_runs``-sized run ranges and one decide job
for each look of the campaign's schedule, the last of which writes the
report — that any worker process can execute given only the shared
:class:`~repro.store.store.TraceStore`.
Units reference programs *by name* through :mod:`repro.apps.registry`,
so a spec is re-materialisable anywhere; all heavy payloads (traces,
evidence, reports) travel through the store, and a unit's queue result
carries only accounting.

Determinism is inherited, not re-implemented: an evidence unit re-derives
its run inputs through :func:`repro.core.pipeline.side_inputs`, the
function ``Owl.detect``'s phase 3 draws them with, and records the slice
``[start, stop)`` as one segment (see :mod:`repro.store.campaign`), so
any ``unit_runs`` partition folds — through the associative
:meth:`~repro.core.evidence.Evidence.merge`, in run order — to the bytes
one in-process ``Owl.detect`` would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Unit kinds, in stage order.
KIND_PLAN = "plan"
KIND_EVIDENCE = "evidence"
KIND_DECIDE = "decide"

#: Stage machine: which kinds a campaign schedules, in which order
#: (``evidence`` and ``decide`` repeat once per look; ``trace``,
#: ``fold`` and ``report`` are retired kinds).
STAGES = (KIND_PLAN, KIND_EVIDENCE, KIND_DECIDE)


@dataclass
class WorkUnit:
    """One durable job: ``(campaign spec, kind, coordinates)``.

    ``spec`` is the campaign identity every unit carries — the workload
    name and the ``OwlConfig`` dict — and ``params`` the kind-specific
    coordinates (side and run range, look).  ``attempts`` counts fleet
    dispatches; the scheduler bumps it on every re-queue and degrades
    the unit to in-process execution past the budget.
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


def plan_unit(cid: str, spec: Dict) -> WorkUnit:
    """Phases 1 and 2: record missing traces, filter, then end the
    campaign or plan phase 3."""
    return WorkUnit(uid=f"{cid}.plan", kind=KIND_PLAN, campaign=cid,
                    spec=spec)


def round_evidence_units(cid: str, spec: Dict, side: str, rep_index: int,
                         start: int, stop: int,
                         unit_runs: int) -> List[WorkUnit]:
    """Evidence units for one round's slice ``[start, stop)`` of a side.

    ``rep_index`` indexes the campaign's input list for the fixed side
    and is ``-1`` for the shared random side.  The slice is partitioned
    by ``unit_runs`` *within* the round, so no unit spans an interim
    look; each unit records one segment named by its run range.
    """
    units = []
    for first in range(start, stop, unit_runs):
        last = min(first + unit_runs, stop)
        units.append(WorkUnit(
            uid=f"{cid}.evidence.{side}.{rep_index}.{first:04d}-{last:04d}",
            kind=KIND_EVIDENCE, campaign=cid, spec=spec,
            params={"side": side, "rep_index": rep_index,
                    "start": first, "stop": last}))
    return units


def decide_unit(cid: str, spec: Dict, round_index: int,
                rep_indices: List[int]) -> WorkUnit:
    """One look: merge every side's segments to the round boundary and
    decide stop-vs-continue; a look that ends the campaign writes its
    report."""
    return WorkUnit(uid=f"{cid}.decide.{round_index:02d}",
                    kind=KIND_DECIDE, campaign=cid, spec=spec,
                    params={"round": round_index,
                            "rep_indices": list(rep_indices)})

