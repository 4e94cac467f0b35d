"""Where a service campaign ends: its plan unit or its last decide unit.

The plan unit runs ``Owl._plan`` and completes a campaign that ends
there (a stored report, or the one-class early exit); each decide unit
runs one look of ``Owl._phase3`` and, when that look stops the campaign
or is its final look, ``Owl._finish``, which writes the report.  There
is no report unit: queues that still hold one recover without it.
"""

import dataclasses

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig, PhaseStats
from repro.service import CampaignScheduler, ServiceConfig
from repro.service.execute import execute_unit, materialize
from repro.service.scheduler import STAGE_COMPLETE, STAGE_DECIDING
from repro.service.units import (
    WorkUnit, decide_unit, plan_unit, round_evidence_units)
from repro.service.worker import worker_loop
from repro.store import TraceStore
from repro.store.campaign import Campaign
from tests.service.test_service_identity import enqueued_units

TINY = dict(fixed_runs=4, random_runs=4, seed=7)
ADAPTIVE = dict(fixed_runs=60, random_runs=60, adaptive=True,
                always_analyze=True, seed=13)


def direct_result(workload, overrides, store=None, reuse_report=True):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    return owl.detect(fixed_inputs(), random_input=random_input, store=store,
                      reuse_report=reuse_report)


def fixed_key(store, workload, overrides):
    program, fixed_inputs, _random = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    campaign = Campaign(store, workload, owl.config, owl.device_config)
    key = campaign.evidence_key(
        "fixed", campaign.input_fingerprint(fixed_inputs()[0]))
    return campaign, key


def drive_until(scheduler, state, stop):
    """Run units with an in-process worker until ``stop()`` holds."""
    queue_root, store_root = scheduler.queue.root, scheduler.store_root
    scheduler.tick()
    while not stop():
        assert not state.done
        worker_loop(queue_root, store_root, "w0", max_loops=1)
        scheduler.tick()


def external_scheduler(tmp_path, **fields):
    return CampaignScheduler(
        tmp_path / "store", tmp_path / "queue",
        ServiceConfig(workers=0, external_workers=True, **fields))


class TestUpgradedQueue:
    def test_pending_report_and_final_decide_units_recover(self, tmp_path):
        """A queue left while campaigns still ended on a report unit:
        c0001 had run its final decide unit (which completed the sides
        and wrote no report) and waits on its report unit; c0002 waits on
        its final decide unit.  Recovery retires the report unit, runs
        c0001's decide unit again, now writing the report, and runs
        c0002's: both reach the direct reports."""
        specs = {"c0001": ("dummy", TINY), "c0002": ("rsa", TINY)}
        store = TraceStore(tmp_path / "store")
        config = ServiceConfig(workers=0, unit_runs=2)
        first = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  config)
        queue = first.queue
        for cid, (workload, overrides) in specs.items():
            spec = {"workload": workload, "config": dataclasses.asdict(
                OwlConfig(**overrides))}
            queue.save_campaign(cid, dict(spec, tenant="anonymous"))
            owl, campaign, inputs, random_input = materialize(spec, store)
            result, _inputs_fp, rep_indices = owl._plan(
                inputs, PhaseStats(), campaign, reuse_report=True,
                started=0.0)
            # the plan payload as it was written before plan units could
            # end a campaign: no ``report`` key
            queue.complete(f"{cid}.plan", {
                "early_exit": False, "rep_indices": rep_indices,
                "complete_sides": [],
                "num_classes": result.filter_result.num_classes}, "w0")
            for side, rep_index in (("fixed", rep_indices[0]),
                                    ("random", -1)):
                for unit in round_evidence_units(cid, spec, side, rep_index,
                                                 0, 4, config.unit_runs):
                    queue.complete(unit.uid, execute_unit(unit, store), "w0")
            decide = decide_unit(cid, spec, 0, rep_indices)
            if cid == "c0001":
                # the old final decide unit completed every side
                owl._phase3([inputs[index] for index in rep_indices],
                            random_input, PhaseStats(), campaign, look=0)
                queue.complete(decide.uid, {"stop": True, "final": True,
                                            "round": 0}, "w0")
                queue.enqueue(WorkUnit(uid=f"{cid}.report", kind="report",
                                       campaign=cid, spec=spec))
            else:
                queue.enqueue(decide)
        assert store.keys_under("report/") == []
        del first

        second = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                   config)
        assert second.recover() == ["c0001", "c0002"]
        assert second.wait(timeout=240)
        for cid, (workload, overrides) in specs.items():
            results = second.results(cid)
            assert results["stage"] == STAGE_COMPLETE
            assert results["report_json"] == direct_result(
                workload, overrides).report.to_json()
        events = second.queue.journal_events()
        assert [(event["unit"], event["kind"]) for event in events
                if event["event"] == "retired"] == [("c0001.report",
                                                     "report")]
        assert second.queue.result("c0001.report")["payload"][
            "retired_kind"] == "report"
        # no evidence unit of either campaign ran again
        rerun = [event["unit"] for event in events
                 if event["event"] == "enqueued"]
        assert not [uid for uid in rerun if ".evidence." in uid]


class TestDecideUnitEnds:
    def test_sides_completed_by_another_campaign_meanwhile(self, tmp_path):
        """A decide unit at look 1 of an adaptive campaign, whose sides a
        classic campaign completed after the look was enqueued: the store
        holds every side, so the unit's schedule is the one look at the
        full budget, and it reports a warm direct run's bytes."""
        scheduler = external_scheduler(tmp_path)
        cid = scheduler.submit("dummy", ADAPTIVE)
        state = scheduler.campaigns[cid]
        drive_until(scheduler, state, lambda: state.stage == STAGE_DECIDING
                    and state.look == 1)
        assert scheduler.queue.pending_units() == [f"{cid}.decide.01"]

        classic = dict(ADAPTIVE, adaptive=False)
        direct_result("dummy", classic, store=tmp_path / "store")
        drive_until(scheduler, state, lambda: state.done)
        assert state.stage == STAGE_COMPLETE, state.error
        warm = direct_result("dummy", ADAPTIVE, store=tmp_path / "store",
                             reuse_report=False)
        assert warm.adaptive.outcome == "cached-evidence"
        assert scheduler.results(cid)["report_json"] == \
            warm.report.to_json()
        assert warm.report.num_fixed_runs == ADAPTIVE["fixed_runs"]

    def test_an_interim_look_keeps_a_completed_sides_segments(
            self, tmp_path):
        """A classic campaign completes the fixed side; an adaptive one
        with another seed records its interim segments all the same.
        The decide unit of a look that goes on leaves them in place for
        the next look; the campaign's last decide unit drops them."""
        scheduler = external_scheduler(tmp_path)
        classic = dict(ADAPTIVE, adaptive=False)
        first = scheduler.submit("dummy", classic)
        drive_until(scheduler, scheduler.campaigns[first],
                    lambda: scheduler.campaigns[first].done)
        store = TraceStore(tmp_path / "store")
        campaign, key = fixed_key(store, "dummy", ADAPTIVE)
        prefix = campaign.segment_prefix(key)
        assert key in store

        adaptive = dict(ADAPTIVE, seed=14)
        cid = scheduler.submit("dummy", adaptive)
        state = scheduler.campaigns[cid]
        drive_until(scheduler, state, lambda: state.look == 1)
        verdict = scheduler.queue.result(f"{cid}.decide.00")["payload"]
        assert not verdict["stop"] and verdict["report"] is None
        store.refresh()
        assert store.keys_under(prefix) == [f"{prefix}0-16"]

        drive_until(scheduler, state, lambda: state.done)
        assert state.stage == STAGE_COMPLETE, state.error
        store.refresh()
        assert store.keys_under(prefix) == []
        assert scheduler.results(cid)["report_json"] == direct_result(
            "dummy", adaptive).report.to_json()


class TestPlanUnitEnds:
    def test_resubmitting_a_finished_campaign_runs_its_plan_unit_only(
            self, tmp_path):
        """``coalesce=False``: the resubmission's plan unit finds the
        stored report and completes the campaign."""
        scheduler = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=2, coalesce=False))
        first = scheduler.submit("dummy", TINY)
        assert scheduler.wait([first], timeout=240)
        again = scheduler.submit("dummy", TINY)
        assert scheduler.wait([again], timeout=240)
        assert enqueued_units(scheduler, again) == [f"{again}.plan"]
        assert scheduler.campaigns[again].report["report_cache_hit"]
        assert scheduler.results(again)["report_json"] == \
            scheduler.results(first)["report_json"] == direct_result(
                "dummy", TINY).report.to_json()

    def test_a_plan_unit_marks_the_campaign_started(self, tmp_path):
        """A service campaign killed after its plan unit is one ``owl
        resume`` finds, as a direct campaign's would be."""
        from repro.store import incomplete_campaigns
        store = TraceStore(tmp_path / "store")
        spec = {"workload": "dummy", "config": TINY}
        payload = execute_unit(plan_unit("c0001", spec), store)
        assert payload["report"] is None and payload["rep_indices"]
        store.refresh()
        assert [entry.meta["status"] for entry in
                incomplete_campaigns(store)] == ["in_progress"]
