"""Execute one work unit against the shared store, in any process.

Every unit kind re-materialises its campaign from the JSON spec — the
workload registry provides the program and input factories, the config
dict round-trips through :class:`~repro.core.pipeline.OwlConfig` — and
then runs its step of ``Owl.detect`` itself, never a copy of it:

* ``plan``     — ``Owl._plan``: record + store the traces the store
  lacks, filter them, mark the campaign started, and either end the
  campaign (a stored report, or the one-class early exit) or name the
  representatives and the sides the store already holds complete;
* ``evidence`` — record runs ``[start, stop)`` of one side into one
  segment (inputs re-derived from the seeded generator, so every worker
  draws the same sequence);
* ``decide``   — one look of ``Owl._phase3``, each side reaching it
  from the stored segments; a look that stops the campaign, or is its
  final look, then runs ``Owl._finish``, which saves the report and
  completes the campaign.

A unit that ends its campaign names the stored report in its payload's
``report``.  Units are idempotent: a plan unit re-run finds the stored
traces (and report), an evidence unit first checks for any campaign's
segment of its exact run range, and a decide unit re-run merges the
same segments to the same verdict, so re-queued units (after a worker
death) and coalesced campaigns cost little.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig, PhaseStats, side_inputs
from repro.core.report import LeakageReport
from repro.errors import CampaignError
from repro.resilience.events import collecting_degradations
from repro.service.units import (
    KIND_DECIDE, KIND_EVIDENCE, KIND_PLAN, WorkUnit)
from repro.store.campaign import Campaign
from repro.store.store import TraceStore


def materialize(spec: Dict, store: TraceStore
                ) -> Tuple[Owl, Campaign, List[object], object]:
    """Spec dict → (owl, campaign, fixed inputs, random-input fn)."""
    program, fixed_inputs, random_input = resolve(spec["workload"])
    config = OwlConfig.from_stored(spec["config"])
    owl = Owl(program, name=spec["workload"], config=config)
    campaign = Campaign(store, owl.name, config, owl.device_config)
    return owl, campaign, list(fixed_inputs()), random_input


def _evidence_key(campaign: Campaign, inputs: List[object],
                  side: str, rep_index: int) -> str:
    return campaign.evidence_key(
        side, None if side == "random"
        else campaign.input_fingerprint(inputs[rep_index]))


def execute_unit(unit: WorkUnit, store: TraceStore) -> Dict:
    """Run one unit against a held store; returns its JSON-safe payload.

    Refreshes *store* first, which reads only the manifest journal
    appended since its last refresh, so every write that finished before
    the unit was enqueued is visible.
    """
    store.refresh()
    with collecting_degradations() as log:
        payload = _dispatch(unit, store)
    payload["degradations"] = log.to_list()
    return payload


def _dispatch(unit: WorkUnit, store: TraceStore) -> Dict:
    if unit.kind == KIND_PLAN:
        return _run_plan(unit, store)
    if unit.kind == KIND_EVIDENCE:
        return _run_evidence(unit, store)
    if unit.kind == KIND_DECIDE:
        return _run_decide(unit, store)
    raise CampaignError(f"unknown work unit kind {unit.kind!r}")


def _report_payload(campaign: Campaign, inputs_fp: str,
                    report: LeakageReport, stats: PhaseStats) -> Dict:
    """What the scheduler keeps of a campaign's end: the stored report's
    key and verdict, and the ending unit's store reuse."""
    return {"report_key": campaign.report_key(inputs_fp),
            "has_leaks": report.has_leaks,
            "num_leaks": len(report.leaks),
            "cached_traces": stats.cached_traces,
            "cached_runs": stats.cached_runs,
            "report_cache_hit": stats.report_cache_hit,
            "total_seconds": stats.total_seconds}


def _run_plan(unit: WorkUnit, store: TraceStore) -> Dict:
    """Phases 1 and 2 (``Owl._plan``): the campaign ends here, or the
    payload names its representatives and the complete sides."""
    owl, campaign, inputs, _random = materialize(unit.spec, store)
    stats = PhaseStats()
    result, inputs_fp, rep_indices = owl._plan(
        inputs, stats, campaign, reuse_report=True,
        started=time.perf_counter())
    payload = {"rep_indices": rep_indices, "report": None,
               "num_classes": result.filter_result.num_classes,
               "recorded": stats.trace_count,
               "cached_traces": stats.cached_traces}
    if result.report is not None:
        payload["report"] = _report_payload(campaign, inputs_fp,
                                            result.report, stats)
    else:
        # they stand in at the final look, so that look records nothing
        # for them
        payload["complete_sides"] = [
            rep_index for side, rep_index in
            [("fixed", index) for index in rep_indices] + [("random", -1)]
            if _evidence_key(campaign, inputs, side, rep_index) in store]
    return payload


def _run_evidence(unit: WorkUnit, store: TraceStore) -> Dict:
    """Record one side's runs ``[start, stop)`` into one segment.

    A completed side stands in at the final look only, so a range of
    an interim look is recorded for it all the same (the scheduler
    enqueues no final-look range of a side the plan found complete).
    """
    owl, campaign, inputs, random_input = materialize(unit.spec, store)
    side = str(unit.params["side"])
    rep_index = int(unit.params["rep_index"])
    start, stop = int(unit.params["start"]), int(unit.params["stop"])
    evidence_key = _evidence_key(campaign, inputs, side, rep_index)
    if campaign.segment_key(evidence_key, start, stop) in store:
        return {"runs": 0, "cached": True}  # by any campaign
    values = side_inputs(owl.config, side,
                         inputs[rep_index] if side == "fixed" else None,
                         random_input)[start:stop]
    partial, chunk_stats = owl.pool.record_evidence(
        values, keep_per_run=owl.config.sampling == "per_run")
    campaign.save_segment(evidence_key, start, stop, partial, side)
    return {"runs": stop - start,
            "trace_seconds": chunk_stats.trace_seconds_total}


def _run_decide(unit: WorkUnit, store: TraceStore) -> Dict:
    """One look of ``Owl._phase3``; ``Owl._finish`` when it ends the
    campaign.

    Every side reaches the look's boundaries as a resumed direct run's
    look does: its segment chain merged in run order, whatever partition
    wrote it, plus, recorded as more segments, any runs the chain lacks
    (a campaign that completed the side, or finished with it, deleted
    its segments; a damaged one was quarantined).  At the final look a
    completed side stands in, and every other side is completed.  The
    stop-vs-continue decision is a pure function of the evidence
    prefixes, so a re-queued decide unit recomputes it bit-identically.
    When the store holds every side complete, the campaign's schedule is
    the one look at the full budget, whichever look this unit was
    enqueued for.
    """
    owl, campaign, inputs, random_input = materialize(unit.spec, store)
    started = time.perf_counter()
    stats = PhaseStats()
    look = int(unit.params["round"])
    rep_reports, summary = owl._phase3(
        [inputs[index] for index in unit.params["rep_indices"]],
        random_input, stats, campaign, look=look)
    payload = {"round": look, "stop": rep_reports is not None,
               "report": None}
    if summary is not None and summary.rounds:
        payload.update(summary.rounds[-1].to_dict())
    if rep_reports is not None:
        inputs_fp = campaign.inputs_fingerprint(
            [campaign.input_fingerprint(value) for value in inputs])
        report, _per_rep = owl._finish(rep_reports, summary, stats,
                                       campaign, inputs_fp, started)
        payload["report"] = _report_payload(campaign, inputs_fp, report,
                                            stats)
    return payload
