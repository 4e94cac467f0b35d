"""The campaign scheduler: submissions → work units → fleet → reports.

One :class:`CampaignScheduler` owns a :class:`~repro.service.queue.JobQueue`
and drives every submitted campaign through one stage machine

    planning → [evidence → deciding]* → complete

The ``planning`` stage's one unit is Owl's phases 1 and 2 (record the
traces the store lacks, filter them, mark the campaign started), and it
completes the campaign when the campaign ends there: a report already
stored, or the one-class early exit.  Otherwise comes one
``evidence → deciding`` pass per look of the campaign's schedule
(:func:`repro.core.adaptive.look_schedule`): a single look at the full
budget for the paper's protocol, one per round for
``OwlConfig(adaptive=True)``.  Each ``evidence`` stage records one
round's replica slice as run-range segments (``unit_runs`` partitioning
always respects the round boundaries) and the ``deciding`` stage's unit
runs that look of ``Owl._phase3`` over them.  A look that stops the
campaign, or is its final look, also runs ``Owl._finish``, which writes
the report; otherwise the scheduler schedules the next round.  A
campaign whose every side the store holds complete goes from its plan
unit straight to ``decide.00``, whose one look loads them.  Each
stage's durable units are enqueued the moment the previous stage's
results are all on disk.  The actual work happens
wherever a unit is claimed — fleet worker processes, or the scheduler process itself when
``workers == 0`` or the fleet is spent (same units, same results).

Fault handling is :class:`~repro.resilience.supervisor.ChunkSupervisor`'s
ladder lifted to fleet level, with the same split of responsibilities:

* a worker that *died or went silent* (process exit, expired lease) is an
  infrastructure fault — its leased units are re-queued deterministically
  (``WORKER_LOST`` → ``UNIT_REQUEUED``), and a unit that exhausts
  ``max_attempts`` fleet dispatches executes in the scheduler process
  instead (``FLEET_TO_LOCAL``, the terminal rung), as does every unit
  once the restart budget is spent and no worker is left;
* a worker that *returned an error result* hit real program/unit code
  failure — that propagates and fails the campaign, exactly as
  worker-code exceptions propagate out of the chunk supervisor.

Multi-tenant amortisation: with ``coalesce=True`` (default), submissions
that resolve to the same (workload, analysis fingerprint, inputs) attach
to the in-flight execution instead of scheduling a duplicate; every
tenant still gets their own campaign id, status and results.  Distinct
campaigns additionally share phase-1 traces and evidence sides through
the store's content-addressed reuse — the fixed side across seeds, the
random side across analyzers — so a fleet serving many tenants does
strictly less work than the tenants running alone.

Tenancy and fair admission: every submission carries a tenant identity
(resolved by the front end's bearer token, or ``anonymous``).  A
tenant's :class:`~repro.service.config.TenantQuota` caps its in-flight
campaigns at submit time (over-cap submissions raise
:class:`~repro.errors.QuotaError`, surfaced as HTTP 429) and its
admitted-at-once units: a stage's units land in the campaign's
*backlog*, and the scheduler admits them to the durable queue by
weighted fair stride — among tenants with backlog and headroom, the one
with the smallest accumulated pass (incremented by ``1/weight`` per
admitted unit) goes next — so a heavy tenant saturating the fleet can
delay but never starve a light one.  Admission order shapes only *when*
units run; reports stay bit-identical because unit results are
order-independent by construction.

Bit-identity: the plan and decide units run ``Owl``'s own plan, look
and finish steps, over evidence that is the same segments folded in run
order through the associative ``Evidence.merge``, so "service report ≡
direct report" holds by construction — at any worker count, any
``unit_runs`` partition, and across injected worker deaths.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.adaptive import look_schedule
from repro.core.pipeline import OwlConfig
from repro.errors import QuotaError
from repro.resilience.events import (
    FLEET_TO_LOCAL, UNIT_REQUEUED, WORKER_LOST, DegradationEvent)
from repro.service.config import ServiceConfig
from repro.service.execute import execute_unit
from repro.service.fleet import WorkerFleet
from repro.service.queue import SCHEDULER_BELL, WORKER_BELL, JobQueue
from repro.service.units import (
    STAGES, WorkUnit, decide_unit, plan_unit, round_evidence_units)
from repro.store.fingerprint import (
    analysis_fingerprint, fingerprint_inputs, fingerprint_value)
from repro.store.store import TraceStore

#: Campaign stages, in order.
STAGE_PLANNING = "planning"
STAGE_EVIDENCE = "evidence"
STAGE_DECIDING = "deciding"
STAGE_COMPLETE = "complete"
STAGE_FAILED = "failed"

_LOCAL = "scheduler"

#: Tenant identity of unauthenticated submissions.
DEFAULT_TENANT = "anonymous"


def campaign_identity(workload: str, config: OwlConfig) -> str:
    """The coalescing key: what makes two submissions the same detection.

    Built from the same fingerprints the store keys reports under —
    operational knobs (workers, cohort, …) never enter it.
    """
    from repro.apps.registry import resolve
    _program, fixed_inputs, _random = resolve(workload)
    analysis_fp = analysis_fingerprint(config, config.device_config())
    inputs_fp = fingerprint_inputs(
        [fingerprint_value(value) for value in fixed_inputs()])
    return f"{workload}/{analysis_fp}/{inputs_fp}"


@dataclass
class CampaignState:
    """Scheduler-side view of one submitted campaign."""

    cid: str
    workload: str
    config_dict: Dict
    identity: str
    tenant: str = DEFAULT_TENANT
    stage: str = STAGE_PLANNING
    #: admitted unit ids awaiting results (shrinks as results harvest)
    pending: List[str] = field(default_factory=list)
    #: this stage's units not yet admitted to the queue (quota backlog)
    backlog: List[WorkUnit] = field(default_factory=list)
    plan: Optional[Dict] = None
    report: Optional[Dict] = None
    error: Optional[str] = None
    coalesced_into: Optional[str] = None
    degradations: List[DegradationEvent] = field(default_factory=list)
    submitted_at: float = 0.0
    #: current look of the campaign's schedule (meaningful while the
    #: campaign loops through evidence → deciding)
    look: int = 0

    @property
    def done(self) -> bool:
        return self.stage in (STAGE_COMPLETE, STAGE_FAILED)

    def spec(self) -> Dict:
        return {"workload": self.workload, "config": self.config_dict}


class CampaignScheduler:
    """Decompose campaigns into durable units and see them through."""

    def __init__(self, store_root, queue_root,
                 config: Optional[ServiceConfig] = None,
                 fleet: Optional[WorkerFleet] = None) -> None:
        self.store_root = str(store_root)
        #: the shared store, created/validated here (before the queue,
        #: so a store that refuses to open leaves no queue behind) and
        #: refreshed before each read of other processes' writes
        self.store = TraceStore(self.store_root)
        self.config = config or ServiceConfig()
        self.queue = JobQueue(queue_root)
        self.fleet = fleet
        self.campaigns: Dict[str, CampaignState] = {}
        self._by_identity: Dict[str, str] = {}
        self._seq = 0
        self.events: List[DegradationEvent] = []
        #: weighted fair stride state: tenant → accumulated pass
        self._tenant_pass: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, workload: str,
               config_overrides: Optional[Dict] = None,
               tenant: str = DEFAULT_TENANT) -> str:
        """Register a campaign for *tenant*; returns its id immediately.

        Raises :class:`~repro.errors.QuotaError` when the tenant's
        in-flight campaign cap is already met — the 429 path; nothing is
        recorded, so the tenant can resubmit once a campaign finishes.
        """
        config = OwlConfig(**(config_overrides or {}))
        quota = self.config.quota_for(tenant)
        if quota.max_campaigns is not None:
            active = sum(1 for state in self.campaigns.values()
                         if state.tenant == tenant and not state.done)
            if active >= quota.max_campaigns:
                raise QuotaError(
                    f"tenant {tenant!r} already has {active} campaign(s) "
                    f"in flight (quota: {quota.max_campaigns}); retry "
                    f"after one completes")
        identity = campaign_identity(workload, config)
        self._seq += 1
        cid = f"c{self._seq:04d}"
        state = CampaignState(cid=cid, workload=workload,
                              config_dict=asdict(config),
                              identity=identity, tenant=tenant,
                              submitted_at=time.time())
        primary_cid = self._by_identity.get(identity)
        primary = (self.campaigns.get(primary_cid)
                   if primary_cid is not None else None)
        if (self.config.coalesce and primary is not None
                and primary.stage != STAGE_FAILED):
            state.coalesced_into = primary.cid
            state.stage = primary.stage
            self.campaigns[cid] = state
            self.queue.save_campaign(cid, dict(
                state.spec(), coalesced_into=primary.cid, tenant=tenant))
            self.queue.journal("coalesced", campaign=cid, into=primary.cid,
                               tenant=tenant)
            return cid
        self.campaigns[cid] = state
        self._by_identity[identity] = cid
        self.queue.save_campaign(cid, dict(state.spec(), tenant=tenant))
        self.queue.journal("submitted", campaign=cid, workload=workload,
                           tenant=tenant)
        self._start(state)
        return cid

    def _start(self, state: CampaignState) -> None:
        state.stage = STAGE_PLANNING
        self._enqueue(state, [plan_unit(state.cid, state.spec())])

    def _enqueue(self, state: CampaignState, units) -> None:
        """Stage the units in the campaign's backlog and admit what the
        tenant's quota allows right away (the rest follows per tick)."""
        state.backlog = list(units)
        state.pending = []
        self._admit()

    # -- weighted fair admission ---------------------------------------

    def _admit(self) -> None:
        """Move backlogged units into the durable queue, fairly.

        In-flight is counted per tenant over admitted-but-unharvested
        units; admission picks, among tenants with backlog and quota
        headroom, the smallest accumulated stride pass (ties break by
        name for determinism) and charges it ``1/weight`` per unit.
        With no quotas and no admission window every unit is admitted
        immediately — the pre-tenancy behaviour.
        """
        inflight: Dict[str, int] = {}
        total_inflight = 0
        enqueued = False
        backlogged: Dict[str, List[CampaignState]] = {}
        for state in self.campaigns.values():
            if state.done or state.coalesced_into is not None:
                continue
            count = len(state.pending)
            inflight[state.tenant] = inflight.get(state.tenant, 0) + count
            total_inflight += count
            if state.backlog:
                backlogged.setdefault(state.tenant, []).append(state)
        for states in backlogged.values():
            states.sort(key=lambda state: state.cid)
        while backlogged:
            if (self.config.admission_window is not None
                    and total_inflight >= self.config.admission_window):
                break
            candidates = []
            for tenant in backlogged:
                cap = self.config.quota_for(tenant).max_inflight
                if cap is None or inflight.get(tenant, 0) < cap:
                    candidates.append(tenant)
            if not candidates:
                break
            tenant = min(candidates,
                         key=lambda t: (self._tenant_pass.get(t, 0.0), t))
            states = backlogged[tenant]
            state = states[0]
            unit = state.backlog.pop(0)
            if not state.backlog:
                states.pop(0)
                if not states:
                    del backlogged[tenant]
            if self.queue.enqueue(unit):
                enqueued = True
                self.queue.journal("enqueued", unit=unit.uid,
                                   kind=unit.kind, campaign=state.cid,
                                   tenant=tenant)
            state.pending.append(unit.uid)
            inflight[tenant] = inflight.get(tenant, 0) + 1
            total_inflight += 1
            self._tenant_pass[tenant] = (
                self._tenant_pass.get(tenant, 0.0)
                + 1.0 / self.config.quota_for(tenant).weight)
        if enqueued:
            self.queue.ring(WORKER_BELL)

    # ------------------------------------------------------------------
    # the drive loop
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """One scheduling round: reap faults, run/harvest units, advance."""
        self._reap_fleet()
        self._reap_leases()
        self._admit()
        fleetless = (self.fleet is None or self.config.workers == 0
                     or self.fleet.spent())
        if fleetless and not self.config.external_workers:
            self._run_local_pending()
        for state in list(self.campaigns.values()):
            if not state.done and state.coalesced_into is None:
                self._harvest(state)
        self._mirror_coalesced()

    def wait(self, cids=None, timeout: Optional[float] = None) -> bool:
        """Tick until the given campaigns (default: all) are terminal.

        Between ticks it waits on the scheduler's doorbell, which every
        unit result rings, for at most ``poll_seconds``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        targets = list(self.campaigns) if cids is None else list(cids)
        bell = self.queue.doorbell(SCHEDULER_BELL)
        try:
            while True:
                self.tick()
                if all(self.campaigns[cid].done for cid in targets
                       if cid in self.campaigns):
                    return True
                if deadline is not None and time.monotonic() > deadline:
                    return False
                if bell is None:
                    time.sleep(self.config.poll_seconds)
                else:
                    bell.wait(self.config.poll_seconds)
        finally:
            if bell is not None:
                bell.close()

    # -- fault reaping --------------------------------------------------

    def _reap_fleet(self) -> None:
        if self.fleet is None:
            return
        dead = self.fleet.poll()
        for worker_id in dead:
            held = self.queue.claims_by_worker(worker_id)
            event = DegradationEvent(
                kind=WORKER_LOST, subsystem="fleet",
                reason=f"worker {worker_id} exited",
                context={"worker": worker_id, "held_units": len(held)})
            self.events.append(event)
            self.queue.journal("worker_lost", worker=worker_id,
                               held=list(held))
            for uid in held:
                self._requeue(uid, reason=f"worker {worker_id} died")
        if dead and self.fleet.spent() and not self.config.external_workers:
            # the whole fleet's terminal rung: tick runs every unit here
            self.events.append(DegradationEvent(
                kind=FLEET_TO_LOCAL, subsystem="fleet",
                reason="restart budget spent and no worker left",
                context={"restarts": self.fleet.restarts}))
            self.queue.journal("fleet_to_local",
                               restarts=self.fleet.restarts)

    def _reap_leases(self) -> None:
        for uid in self.queue.expired_claims(self.config.lease_seconds):
            info = self.queue.claim_info(uid)
            worker = info.get("worker", "?") if info else "?"
            self.events.append(DegradationEvent(
                kind=WORKER_LOST, subsystem="fleet",
                reason=f"lease on {uid} expired (worker {worker} silent)",
                context={"worker": worker, "unit": uid}))
            self.queue.journal("lease_expired", unit=uid, worker=worker)
            self._requeue(uid, reason=f"lease expired (worker {worker})")

    def _requeue(self, uid: str, reason: str) -> None:
        unit = self.queue.requeue(uid)
        if unit is None:
            return
        state = self.campaigns.get(unit.campaign)
        event = DegradationEvent(
            kind=UNIT_REQUEUED, subsystem="fleet", reason=reason,
            context={"unit": uid, "attempt": unit.attempts})
        if state is not None:
            state.degradations.append(event)
        self.queue.journal("requeued", unit=uid, attempt=unit.attempts)
        if unit.attempts >= self.config.max_attempts:
            # terminal rung: run it here, now — the fleet forfeited it
            degrade = DegradationEvent(
                kind=FLEET_TO_LOCAL, subsystem="fleet",
                reason=f"unit {uid} exhausted {unit.attempts} fleet "
                       f"attempts", context={"unit": uid})
            if state is not None:
                state.degradations.append(degrade)
            self.events.append(degrade)
            self.queue.journal("fleet_to_local", unit=uid)
            self._execute_local(uid)

    # -- execution ------------------------------------------------------

    def _execute_local(self, uid: str) -> None:
        if not self.queue.claim(uid, _LOCAL):
            return  # someone else holds it; their result (or death) wins
        unit = (None if self.queue.has_result(uid)  # finished meanwhile
                else self.queue.load_unit(uid))
        if unit is None:
            self.queue.release(uid)
            return
        try:
            payload = execute_unit(unit, self.store)
        except Exception as error:  # noqa: BLE001 — recorded as unit failure
            self.queue.fail(uid, f"{type(error).__name__}: {error}", _LOCAL)
        else:
            self.queue.complete(uid, payload, _LOCAL)

    def _run_local_pending(self) -> None:
        """No fleet: the scheduler is the worker (identical results)."""
        for state in list(self.campaigns.values()):
            if state.done or state.coalesced_into is not None:
                continue
            for uid in list(state.pending):
                if self.queue.result(uid) is None:
                    self._execute_local(uid)

    # -- harvesting + stage advance ------------------------------------

    def _harvest(self, state: CampaignState) -> None:
        remaining = []
        payloads = {}
        for uid in state.pending:
            result = self.queue.result(uid)
            if result is None:
                remaining.append(uid)
                continue
            if result.get("status") != "done":
                state.stage = STAGE_FAILED
                state.error = (f"unit {uid} failed: "
                               f"{result.get('error', 'unknown error')}")
                state.pending = []
                state.backlog = []
                self.queue.journal("failed", campaign=state.cid,
                                   unit=uid, error=state.error)
                return
            payload = result.get("payload", {})
            payloads[uid] = payload
            for data in payload.get("degradations", []):
                state.degradations.append(DegradationEvent.from_dict(data))
        if remaining or state.backlog:
            state.pending = remaining
            return
        self._advance(state, payloads)

    def _advance(self, state: CampaignState, payloads: Dict) -> None:
        if state.stage == STAGE_EVIDENCE:
            self._decide(state)
            return
        (uid, payload), = payloads.items()  # the plan or decide unit's
        if "report" not in payload:
            # written before plan and decide units ended campaigns (a
            # queue recovered across that change): run the unit again
            self.queue.clear_result(uid)
            (self._start if state.stage == STAGE_PLANNING
             else self._decide)(state)
            return
        if state.stage == STAGE_PLANNING:
            state.plan = payload
        else:
            self.queue.journal(
                "decided", campaign=state.cid, round=state.look,
                stop=payload.get("stop"), undecided=payload.get("undecided"))
        if payload["report"] is not None:
            state.report = payload["report"]
            state.stage = STAGE_COMPLETE
            state.pending = []
            self.queue.journal("complete", campaign=state.cid,
                               report_key=state.report.get("report_key"),
                               has_leaks=state.report.get("has_leaks"))
            return
        if state.stage == STAGE_DECIDING:
            state.look += 1
        elif set(payload["rep_indices"]) | {-1} <= set(
                payload["complete_sides"]):
            # every side complete: the decide unit's one look loads them
            self._decide(state)
            return
        state.stage = STAGE_EVIDENCE
        self._enqueue(state, self._round_units(state, state.look))

    def _decide(self, state: CampaignState) -> None:
        """Enqueue the decide unit of the campaign's current look."""
        state.stage = STAGE_DECIDING
        self._enqueue(state, [decide_unit(state.cid, state.spec(),
                                          state.look,
                                          state.plan["rep_indices"])])

    def _round_units(self, state: CampaignState,
                     round_index: int) -> List:
        """Evidence units for one look's replica slice.

        Each unit is named by its run range, so the decide unit finds
        every segment recorded so far by range alone; a round whose
        slice is empty on one side (boundaries can coincide for tiny
        budgets) simply contributes no units for that side.  A side the
        plan found complete stands in at the final look, so only its
        interim slices get units.
        """
        schedule = look_schedule(OwlConfig(**state.config_dict))
        final = round_index == schedule.num_rounds - 1
        complete = set(state.plan["complete_sides"])
        sides = [("fixed", rep_index, schedule.fixed)
                 for rep_index in state.plan["rep_indices"]]
        sides.append(("random", -1, schedule.random))
        units = []
        for side, rep_index, boundaries in sides:
            if final and rep_index in complete:
                continue
            units.extend(round_evidence_units(
                state.cid, state.spec(), side, rep_index,
                boundaries[round_index - 1] if round_index else 0,
                boundaries[round_index], self.config.unit_runs))
        return units

    def _mirror_coalesced(self) -> None:
        for state in self.campaigns.values():
            if state.coalesced_into is None:
                continue
            primary = self.campaigns.get(state.coalesced_into)
            if primary is None:
                continue
            state.stage = primary.stage
            state.plan = primary.plan
            state.report = primary.report
            state.error = primary.error

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status(self, cid: Optional[str] = None) -> Dict:
        if cid is not None:
            state = self.campaigns.get(cid)
            if state is None:
                raise KeyError(f"unknown campaign {cid!r}")
            return self._status_row(state)
        rows = {c: self._status_row(s) for c, s in self.campaigns.items()}
        fleet = {}
        if self.fleet is not None:
            fleet = {"live_workers": self.fleet.live_workers(),
                     "spawned": self.fleet.spawned,
                     "restarts": self.fleet.restarts}
        return {"campaigns": rows, "fleet": fleet,
                "tenants": self._tenant_rows(),
                "events": [event.to_dict() for event in self.events]}

    def _status_row(self, state: CampaignState) -> Dict:
        return {"cid": state.cid, "workload": state.workload,
                "tenant": state.tenant,
                "stage": state.stage, "pending_units": len(state.pending),
                "backlog_units": len(state.backlog),
                "coalesced_into": state.coalesced_into,
                "degradations": len(state.degradations),
                "error": state.error, "report": state.report}

    def _tenant_rows(self) -> Dict:
        """Per-tenant admission accounting for ``owl status``."""
        rows: Dict[str, Dict] = {}
        for state in self.campaigns.values():
            row = rows.setdefault(state.tenant, {
                "active_campaigns": 0, "inflight_units": 0,
                "backlog_units": 0,
                "weight": self.config.quota_for(state.tenant).weight})
            if not state.done:
                row["active_campaigns"] += 1
                if state.coalesced_into is None:
                    row["inflight_units"] += len(state.pending)
                    row["backlog_units"] += len(state.backlog)
        return rows

    def results(self, cid: str) -> Dict:
        """The completed campaign's report JSON (resolves coalescing)."""
        state = self.campaigns.get(cid)
        if state is None:
            raise KeyError(f"unknown campaign {cid!r}")
        if state.coalesced_into is not None:
            primary = self.campaigns.get(state.coalesced_into)
            state = primary if primary is not None else state
        if state.stage == STAGE_FAILED:
            return {"cid": cid, "stage": STAGE_FAILED, "error": state.error}
        if state.stage != STAGE_COMPLETE or state.report is None:
            return {"cid": cid, "stage": state.stage}
        self.store.refresh()
        report = self.store.get_report(state.report["report_key"])
        return {"cid": cid, "stage": STAGE_COMPLETE,
                "report_key": state.report["report_key"],
                "has_leaks": state.report.get("has_leaks"),
                "report_json": None if report is None else report.to_json()}

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def recover(self) -> List[str]:
        """Rebuild scheduler state from queue disk after a restart.

        Re-walks each persisted campaign from the first stage; enqueue is
        a no-op for units whose results survived, so completed stages
        fast-forward on the next ticks instead of re-running.  Queued
        units of retired kinds finish as no-ops: the re-walk redoes
        their work (a ``report`` unit's is the plan or last decide
        unit's, which runs again if its result predates that).
        """
        for uid in self.queue.pending_units():
            unit = self.queue.load_unit(uid)
            if unit and unit.kind not in STAGES \
                    and self.queue.claim(uid, _LOCAL):
                self.queue.complete(uid, {"retired_kind": unit.kind}, _LOCAL)
                self.queue.journal("retired", unit=uid, kind=unit.kind)
        recovered = []
        specs = self.queue.load_campaigns()
        for cid in sorted(specs):
            if cid in self.campaigns:
                continue
            spec = specs[cid]
            config = OwlConfig.from_stored(spec["config"])
            state = CampaignState(
                cid=cid, workload=spec["workload"],
                config_dict=asdict(config),
                identity=campaign_identity(spec["workload"], config),
                tenant=spec.get("tenant", DEFAULT_TENANT),
                submitted_at=time.time())
            self.campaigns[cid] = state
            seq = int(cid[1:]) if cid[1:].isdigit() else 0
            self._seq = max(self._seq, seq)
            coalesced_into = spec.get("coalesced_into")
            if coalesced_into is not None:
                state.coalesced_into = coalesced_into
            else:
                self._by_identity[state.identity] = cid
                self._start(state)
            self.queue.journal("recovered", campaign=cid)
            recovered.append(cid)
        return recovered
