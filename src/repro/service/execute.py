"""Execute one work unit against the shared store, in any process.

Every unit kind re-materialises its campaign from the JSON spec — the
workload registry provides the program and input factories, the config
dict round-trips through :class:`~repro.core.pipeline.OwlConfig` — and
then runs a *slice* of the normal pipeline, persisting its output through
the same campaign key builders ``Owl.detect`` uses:

* ``trace``    — record + store the traces of a subset of user inputs;
* ``plan``     — filter cached traces, decide early-exit vs. which
  representatives need evidence;
* ``evidence`` — record runs ``[start, stop)`` of one side into a chunk
  blob (inputs re-derived from the seeded generator, so every worker
  draws the same sequence);
* ``decide``   — one look of the campaign's schedule: merge each side's
  chunks in order through ``Evidence.merge`` into a checkpoint (or, at
  the final look, the canonical completed evidence) and decide whether
  the campaign stops;
* ``report``   — run ``Owl.detect`` against the now-warm store.  Bit
  identity with a direct in-process detection is inherited from the
  store's warm ≡ cold contract rather than re-proven here.

Units are idempotent: each kind first checks the store for its own
output and returns a cache note instead of re-doing work, so re-queued
units (after a worker death) and coalesced campaigns cost nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.registry import resolve
from repro.core import adaptive as sequential
from repro.core.evidence import Evidence
from repro.core.pipeline import Owl, OwlConfig, PhaseStats
from repro.errors import CampaignError
from repro.resilience.events import collecting_degradations
from repro.service.units import (
    KIND_DECIDE, KIND_EVIDENCE, KIND_PLAN, KIND_REPORT, KIND_TRACE,
    WorkUnit)
from repro.store.serialize import deserialize_evidence, serialize_evidence
from repro.store.campaign import Campaign
from repro.store.store import TraceStore

#: fixed-side chunk blobs live under this kind (collected once folded)
CHUNK_KIND = "checkpoint"


def chunk_key(cid: str, side: str, rep_fp: str, chunk: int) -> str:
    """Store key of one evidence chunk (service-private namespace)."""
    return f"servicechunk/{cid}/{side}/{rep_fp}/{chunk:04d}"


def materialize(spec: Dict, store: TraceStore
                ) -> Tuple[Owl, Campaign, List[object], object]:
    """Spec dict → (owl, campaign, fixed inputs, random-input fn)."""
    program, fixed_inputs, random_input = resolve(spec["workload"])
    config = OwlConfig(**spec["config"])
    owl = Owl(program, name=spec["workload"], config=config)
    campaign = Campaign(store, owl.name, config, owl.device_config)
    return owl, campaign, list(fixed_inputs()), random_input


def _rep_fp(campaign: Campaign, inputs: List[object],
            side: str, rep_index: int) -> str:
    return ("random" if side == "random"
            else campaign.input_fingerprint(inputs[rep_index]))


def _side_values(owl: Owl, inputs: List[object], random_input,
                 side: str, rep_index: int) -> List[object]:
    """The side's full deterministic run-input sequence (parent draw)."""
    if side == "fixed":
        return [inputs[rep_index]] * owl.config.fixed_runs
    rng = np.random.default_rng(owl.config.seed)
    return [random_input(rng) for _ in range(owl.config.random_runs)]


def execute_unit(unit: WorkUnit, store_root) -> Dict:
    """Run one unit; returns its JSON-safe result payload.

    Opens a fresh :class:`TraceStore` per execution so the manifest
    journal replay makes every other worker's completed writes visible.
    """
    store = TraceStore(store_root)
    with collecting_degradations() as log:
        payload = _dispatch(unit, store)
    payload["degradations"] = log.to_list()
    return payload


def _dispatch(unit: WorkUnit, store: TraceStore) -> Dict:
    if unit.kind == KIND_TRACE:
        return _run_trace(unit, store)
    if unit.kind == KIND_PLAN:
        return _run_plan(unit, store)
    if unit.kind == KIND_EVIDENCE:
        return _run_evidence(unit, store)
    if unit.kind == KIND_DECIDE:
        return _run_decide(unit, store)
    if unit.kind == KIND_REPORT:
        return _run_report(unit, store)
    raise CampaignError(f"unknown work unit kind {unit.kind!r}")


def _run_trace(unit: WorkUnit, store: TraceStore) -> Dict:
    owl, campaign, inputs, _random = materialize(unit.spec, store)
    stats = PhaseStats()
    index = int(unit.params["index"])
    owl.record_traces([inputs[index]], stats=stats, campaign=campaign)
    return {"recorded": stats.trace_count, "cached": stats.cached_traces}


def _run_plan(unit: WorkUnit, store: TraceStore) -> Dict:
    """Filter traces (all cached by the trace stage) into the run plan."""
    owl, campaign, inputs, _random = materialize(unit.spec, store)
    stats = PhaseStats()
    traces = owl.record_traces(inputs, stats=stats, campaign=campaign)
    filter_result = owl.filter_inputs(inputs, traces)
    early_exit = (not filter_result.shows_potential_leakage
                  and not owl.config.always_analyze)
    representatives = filter_result.representatives()
    if not owl.config.analyze_all_representatives:
        representatives = representatives[:1]
    fps = [campaign.input_fingerprint(value) for value in inputs]
    rep_indices = [fps.index(campaign.input_fingerprint(rep))
                   for rep in representatives]
    return {"early_exit": early_exit, "rep_indices": rep_indices,
            "num_classes": filter_result.num_classes,
            "cached_traces": stats.cached_traces}


def _run_evidence(unit: WorkUnit, store: TraceStore) -> Dict:
    owl, campaign, inputs, random_input = materialize(unit.spec, store)
    side = str(unit.params["side"])
    rep_index = int(unit.params["rep_index"])
    start, stop = int(unit.params["start"]), int(unit.params["stop"])
    rep_fp = _rep_fp(campaign, inputs, side, rep_index)
    if store.get(campaign.evidence_key(side, rep_fp)) is not None:
        return {"runs": 0, "cached_side": True}  # side already folded
    key = chunk_key(unit.campaign, side, rep_fp, int(unit.params["chunk"]))
    if store.get(key) is not None:
        return {"runs": 0, "cached_chunk": True}  # re-queued after a crash
    values = _side_values(owl, inputs, random_input, side,
                          rep_index)[start:stop]
    keep_per_run = owl.config.sampling == "per_run"
    partial, chunk_stats = owl.pool.record_evidence(
        values, keep_per_run=keep_per_run)
    store.put_evidence(
        key, partial, kind=CHUNK_KIND,
        meta={"workload": owl.name, "campaign": unit.campaign,
              "side": side, "start": start, "stop": stop,
              "seed": owl.config.seed})
    return {"runs": len(values),
            "trace_seconds": chunk_stats.trace_seconds_total}


def _run_decide(unit: WorkUnit, store: TraceStore) -> Dict:
    """One look: merge each side's chunks to the round boundary, decide.

    Every side not yet complete merges its chunks (rounds 0..r, in
    ordinal order).  At an interim look the merge persists as a
    checkpoint — the canonical form the in-process look loop leaves
    behind — and :func:`repro.core.adaptive.evaluate_round` decides
    stop-vs-continue; the decision is a pure function of the evidence
    prefix, so a re-queued decide unit recomputes it bit-identically.
    At the final look the merge persists as completed evidence and the
    unit stops without analysing: the report unit analyses.  A side the
    store already holds complete (a full-budget run got there first)
    is skipped and stops the campaign too — the report unit then takes
    the one-look schedule over the stored evidence and the checkpoints
    written here.  A stopping look deletes every chunk.
    """
    owl, campaign, inputs, _random = materialize(unit.spec, store)
    config = owl.config
    schedule = sequential.look_schedule(config)
    round_index = int(unit.params["round"])
    final = round_index == schedule.num_rounds - 1
    rep_indices = [int(index) for index in unit.params["rep_indices"]]
    side_plan = [("fixed", rep_index, schedule.fixed[round_index],
                  config.fixed_runs, int(unit.params["fixed_chunks"]))
                 for rep_index in rep_indices]
    side_plan.append(("random", -1, schedule.random[round_index],
                      config.random_runs, int(unit.params["random_chunks"])))
    evidences = []
    all_chunk_keys = []
    cached_side = False
    for side, rep_index, boundary, total_runs, num_chunks in side_plan:
        rep_fp = _rep_fp(campaign, inputs, side, rep_index)
        evidence_key = campaign.evidence_key(side, rep_fp)
        keys = [chunk_key(unit.campaign, side, rep_fp, chunk)
                for chunk in range(num_chunks)]
        all_chunk_keys.extend(keys)
        if store.get(evidence_key) is not None:
            cached_side = True
            continue
        merged: Optional[Evidence] = None
        for key in keys:
            chunk_evidence = store.get_evidence(key)
            merged = (chunk_evidence if merged is None
                      else merged.merge(chunk_evidence))
        if merged is None:
            merged = Evidence(keep_per_run=config.sampling == "per_run")
        if final:
            campaign.save_evidence(evidence_key, merged, side)
        else:
            campaign.save_checkpoint(evidence_key, merged, boundary,
                                     total_runs, side)
            evidences.append(deserialize_evidence(serialize_evidence(merged)))
    payload = {"stop": True, "final": final, "round": round_index}
    if cached_side:
        payload["cached_side"] = True
    elif not final:
        _reports, decision = sequential.evaluate_round(
            owl.analyzers, evidences[:-1], evidences[-1],
            program_name=owl.name, alpha=1.0 - config.confidence,
            rho=config.adaptive_alpha_spend, schedule=schedule,
            round_index=round_index)
        payload.update(
            stop=decision.stop, tested=decision.tested,
            flagged=decision.flagged, clean=decision.clean,
            undecided=decision.undecided,
            fixed_boundary=decision.fixed_boundary,
            random_boundary=decision.random_boundary)
    if payload["stop"]:
        with store.batch():
            for key in all_chunk_keys:
                store.delete(key)
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
