"""Execute one work unit against the shared store, in any process.

Every unit kind re-materialises its campaign from the JSON spec — the
workload registry provides the program and input factories, the config
dict round-trips through :class:`~repro.core.pipeline.OwlConfig` — and
then runs a *slice* of the normal pipeline, persisting its output through
the same campaign key builders and phase decisions ``Owl.detect`` uses:

* ``plan``     — record + store the traces the store lacks (one
  ``Owl.record_traces`` call, as in ``Owl.detect``), filter them, decide
  early-exit vs. which representatives need evidence, and name the
  sides the store already holds complete;
* ``evidence`` — record runs ``[start, stop)`` of one side into one
  segment (inputs re-derived from the seeded generator, so every worker
  draws the same sequence);
* ``decide``   — one look of the campaign's schedule: merge each side's
  segments up to the look, as ``Owl.detect`` does, and decide whether
  the campaign stops; at the final look, complete each side the store
  does not already hold instead;
* ``report``   — run ``Owl.detect`` against the now-warm store.  Bit
  identity with a direct in-process detection is inherited from the
  store's warm ≡ cold contract rather than re-proven here.

Units are idempotent: each kind first checks the store for its own
output (for an evidence unit, any campaign's segment of its exact run
range) and returns a cache note instead of re-doing work, so re-queued
units (after a worker death) and coalesced campaigns cost nothing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.apps.registry import resolve
from repro.core import adaptive as sequential
from repro.core.evidence import Evidence
from repro.core.pipeline import (
    Owl, OwlConfig, PhaseStats, canonical_evidence, side_inputs)
from repro.errors import CampaignError
from repro.resilience.events import collecting_degradations
from repro.service.units import (
    KIND_DECIDE, KIND_EVIDENCE, KIND_PLAN, KIND_REPORT, WorkUnit)
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


def _sides(rep_indices) -> List[Tuple[str, int]]:
    """A campaign's evidence sides as ``(side, rep_index)``: one fixed
    side per representative, then the shared random side as ``-1``."""
    return [("fixed", int(index)) for index in rep_indices] + [("random", -1)]


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
    if unit.kind == KIND_REPORT:
        return _run_report(unit, store)
    raise CampaignError(f"unknown work unit kind {unit.kind!r}")


def _run_plan(unit: WorkUnit, store: TraceStore) -> Dict:
    """Phases 1 and 2: record missing traces, filter into the run plan."""
    owl, campaign, inputs, _random = materialize(unit.spec, store)
    stats = PhaseStats()
    traces = owl.record_traces(inputs, stats=stats, campaign=campaign)
    filter_result = owl.filter_inputs(inputs, traces)
    rep_indices = owl.representative_indices(filter_result)
    return {"early_exit": rep_indices is None,
            "rep_indices": rep_indices or [],
            # sides the store holds complete: they stand in at the final
            # look, so that look records nothing for them
            "complete_sides": [
                rep_index for side, rep_index in _sides(rep_indices or [])
                if _evidence_key(campaign, inputs, side, rep_index) in store],
            "num_classes": filter_result.num_classes,
            "recorded": stats.trace_count,
            "cached_traces": stats.cached_traces}


def _record_segment(owl: Owl, campaign: Campaign, evidence_key: str,
                    side: str, representative, random_input, start: int,
                    stop: int) -> Tuple[Evidence, float]:
    """Record runs ``[start, stop)`` of one side and store them as one
    segment; returns the partial evidence and its recording seconds."""
    values = side_inputs(owl.config, side, representative,
                         random_input)[start:stop]
    partial, chunk_stats = owl.pool.record_evidence(
        values, keep_per_run=owl.config.sampling == "per_run")
    campaign.save_segment(evidence_key, start, stop, partial, side)
    return partial, chunk_stats.trace_seconds_total


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
    _partial, seconds = _record_segment(
        owl, campaign, evidence_key, side,
        inputs[rep_index] if side == "fixed" else None, random_input,
        start, stop)
    return {"runs": stop - start, "trace_seconds": seconds}


def _run_decide(unit: WorkUnit, store: TraceStore) -> Dict:
    """One look: merge each side's segments to the round boundary, decide.

    At an interim look every side, a completed one too, reaches the
    boundary as a cold run's look does: its segment chain merged in run
    order, plus, recorded as one more segment, any runs the chain lacks
    (a campaign that completed the side, or finished with it, deleted
    its segments; a damaged one was quarantined).  The merges, in the
    canonical form the in-process look loop analyses, go to
    :func:`repro.core.adaptive.evaluate_round`: the stop-vs-continue
    decision is a pure function of the evidence prefix, so a re-queued
    decide unit recomputes it bit-identically.  At the final look each
    side the store does not hold complete persists as completed
    evidence (deleting its segments) and the unit stops without
    analysing: the report unit analyses, with the completed sides
    standing in.
    """
    owl, campaign, inputs, random_input = materialize(unit.spec, store)
    schedule = sequential.look_schedule(owl.config)
    round_index = int(unit.params["round"])
    final = round_index == schedule.num_rounds - 1
    payload = {"stop": True, "final": final, "round": round_index}
    evidences = []
    for side, rep_index in _sides(unit.params["rep_indices"]):
        evidence_key = _evidence_key(campaign, inputs, side, rep_index)
        if final and evidence_key in store:
            continue  # complete: it stands in at the final look
        boundary = schedule.boundary(side, round_index)
        evidence, done = campaign.extend_from_segments(evidence_key, None,
                                                       0, boundary)
        if done < boundary:
            partial, _seconds = _record_segment(
                owl, campaign, evidence_key, side,
                inputs[rep_index] if side == "fixed" else None,
                random_input, done, boundary)
            evidence = partial if evidence is None else evidence.merge(partial)
        if final:
            campaign.save_evidence(evidence_key, evidence, side)
        else:
            evidences.append(canonical_evidence(evidence))
    if not final:
        _reports, decision = owl.evaluate_look(
            evidences[:-1], evidences[-1], schedule, round_index)
        payload.update(
            stop=decision.stop, tested=decision.tested,
            flagged=decision.flagged, clean=decision.clean,
            undecided=decision.undecided,
            fixed_boundary=decision.fixed_boundary,
            random_boundary=decision.random_boundary)
    return payload


def _run_report(unit: WorkUnit, store: TraceStore) -> Dict:
    """The terminal unit: a normal detection against the warm store."""
    owl, campaign, inputs, random_input = materialize(unit.spec, store)
    result = owl.detect(inputs, random_input=random_input, store=store)
    inputs_fp = campaign.inputs_fingerprint(
        [campaign.input_fingerprint(value) for value in inputs])
    return {"report_key": campaign.report_key(inputs_fp),
            "has_leaks": result.report.has_leaks,
            "num_leaks": len(result.report.leaks),
            "leak_free_by_filtering": result.leak_free_by_filtering,
            "cached_traces": result.stats.cached_traces,
            "cached_runs": result.stats.cached_runs,
            "report_cache_hit": result.stats.report_cache_hit,
            "total_seconds": result.stats.total_seconds}
