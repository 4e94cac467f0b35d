"""The service's core contract: reports bit-identical to direct detection.

The scheduler decomposes a campaign into units whose outputs flow through
the store; the plan and decide units run ``Owl.detect``'s own plan, look
and finish steps over it, so these tests assert strict JSON equality
against a fresh single-process run — at ``workers=0``, across
``unit_runs`` partitions, through a real worker fleet, and across
injected worker deaths.
"""

import dataclasses
import json

import pytest

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig, WorkerFleet
from repro.service.execute import materialize
from repro.service.scheduler import (
    STAGE_COMPLETE, STAGE_FAILED, campaign_identity)
from repro.store import TraceStore

TINY = dict(fixed_runs=5, random_runs=5, seed=13, store_checkpoint_every=2)


def direct_report_json(workload="dummy", overrides=TINY, store=None):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    result = owl.detect(fixed_inputs(), random_input=random_input,
                        store=store)
    return result.report.to_json()


def run_service(tmp_path, service_config, workload="dummy", overrides=TINY,
                submissions=1, timeout=240.0):
    fleet = None
    if service_config.workers > 0:
        fleet = WorkerFleet(tmp_path / "queue", tmp_path / "store",
                            workers=service_config.workers,
                            poll_seconds=service_config.poll_seconds,
                            die_after=service_config.die_after,
                            restart_budget=service_config.restart_budget)
    scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  service_config, fleet=fleet)
    if fleet is not None:
        fleet.start()
    try:
        cids = [scheduler.submit(workload, overrides)
                for _ in range(submissions)]
        assert scheduler.wait(cids, timeout=timeout)
    finally:
        if fleet is not None:
            scheduler.queue.request_stop()
            fleet.stop()
    return scheduler, cids


class TestInProcessIdentity:
    def test_report_matches_direct_detect(self, tmp_path):
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=2))
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            store=tmp_path / "direct")

    @pytest.mark.parametrize("unit_runs", [1, 3, 100])
    def test_any_unit_partition_is_identical(self, tmp_path, unit_runs):
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=unit_runs))
        assert scheduler.results(cid)["report_json"] == direct_report_json(
            store=tmp_path / "direct")

    def test_early_exit_workload_completes_with_empty_report(self, tmp_path):
        overrides = dict(TINY)
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=2),
            workload="aes-ct", overrides=overrides)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            workload="aes-ct", overrides=overrides,
            store=tmp_path / "direct")
        # constant-time AES filters to one class: the plan unit ended
        # the campaign, and no other unit ran
        assert scheduler.campaigns[cid].plan["num_classes"] == 1
        assert enqueued_units(scheduler, cid) == [f"{cid}.plan"]

    def test_unknown_workload_fails_at_submit(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0))
        with pytest.raises(KeyError):
            scheduler.submit("no-such-workload", TINY)


class TestCoalescing:
    def test_duplicate_submissions_share_one_execution(self, tmp_path):
        scheduler, cids = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=2), submissions=3)
        primary, *rest = cids
        assert scheduler.campaigns[primary].coalesced_into is None
        assert all(scheduler.campaigns[cid].coalesced_into == primary
                   for cid in rest)
        reports = {scheduler.results(cid)["report_json"] for cid in cids}
        assert len(reports) == 1
        # exactly one set of units was scheduled
        plans = [uid for uid in scheduler.queue.results_dir.glob("*.json")
                 if uid.stem.endswith(".plan")]
        assert len(plans) == 1

    def test_identity_excludes_operational_knobs(self):
        base = OwlConfig(**TINY)
        assert campaign_identity("dummy", base) == campaign_identity(
            "dummy", dataclasses.replace(base, workers=4, cohort=False))
        assert campaign_identity("dummy", base) != campaign_identity(
            "dummy", dataclasses.replace(base, fixed_runs=7))
        assert campaign_identity("dummy", base) != campaign_identity(
            "aes", base)

    def test_no_coalesce_schedules_separately(self, tmp_path):
        scheduler, cids = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=2, coalesce=False),
            submissions=2)
        assert all(scheduler.campaigns[cid].coalesced_into is None
                   for cid in cids)
        reports = {scheduler.results(cid)["report_json"] for cid in cids}
        assert len(reports) == 1  # second run is a report cache hit


def enqueued_units(scheduler, cid):
    journal = scheduler.queue.root / "journal.jsonl"
    events = [json.loads(line) for line in journal.read_text().splitlines()]
    return [event["unit"] for event in events
            if event["event"] == "enqueued" and event["campaign"] == cid]


class TestCompletedSides:
    """Sides the store already holds complete cost no unit dispatch."""

    def run_two(self, tmp_path, second):
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0, unit_runs=2))
        cids = []
        for overrides in (TINY, second):
            cids.append(scheduler.submit("dummy", overrides))
            assert scheduler.wait(cids[-1:], timeout=240.0)
        results = scheduler.results(cids[-1])
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            overrides=second)
        return scheduler, cids[-1]

    def test_new_seed_enqueues_no_fixed_side_unit(self, tmp_path):
        """The fixed side does not depend on the seed: the plan unit finds
        it complete, the campaign's units record only its random side,
        and the decide unit loads the fixed side and merges the random
        side's segments."""
        scheduler, cid = self.run_two(tmp_path, dict(TINY, seed=14))
        units = enqueued_units(scheduler, cid)
        assert not [uid for uid in units if ".evidence.fixed." in uid]
        assert [uid for uid in units if ".evidence.random." in uid]
        assert scheduler.campaigns[cid].report["cached_runs"] == \
            TINY["fixed_runs"] + TINY["random_runs"]

    def test_every_side_complete_goes_straight_to_the_decide_unit(
            self, tmp_path):
        """Another analyzer shares both sides (evidence scope excludes
        it): plan, then the decide unit whose one look loads them."""
        scheduler, cid = self.run_two(tmp_path, dict(TINY, analyzer="mi"))
        assert enqueued_units(scheduler, cid) == [f"{cid}.plan",
                                                  f"{cid}.decide.00"]
        assert scheduler.campaigns[cid].report["cached_runs"] == \
            TINY["fixed_runs"] + TINY["random_runs"]


class TestFleetIdentity:
    def test_fleet_report_identical_and_survives_worker_death(
            self, tmp_path):
        """Acceptance: 2 workers, each injected to die mid-campaign."""
        scheduler, (cid,) = run_service(
            tmp_path,
            ServiceConfig(workers=2, unit_runs=2, die_after=2,
                          lease_seconds=120.0))
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            store=tmp_path / "direct")
        # both injected deaths were observed and survived
        assert scheduler.fleet.restarts == 2
        kinds = [event.kind for event in scheduler.events]
        assert kinds.count("worker_lost") == 2
        state = scheduler.campaigns[cid]
        requeued = [event for event in state.degradations
                    if event.kind == "unit_requeued"]
        assert requeued  # the dead workers' leased units were re-offered

    def test_spent_restart_budget_falls_through_to_the_scheduler(
            self, tmp_path):
        """The fleet's only worker dies and may not be replaced: the
        scheduler runs the campaign's pending units itself, once."""
        config = ServiceConfig(workers=1, die_after=1, restart_budget=0,
                               unit_runs=2, lease_seconds=120.0)
        scheduler, (cid,) = run_service(tmp_path, config, timeout=60.0)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            store=tmp_path / "direct")
        assert scheduler.fleet.live_workers() == []
        assert scheduler.fleet.restarts == 0
        kinds = [event.kind for event in scheduler.events]
        assert kinds == ["worker_lost", "fleet_to_local"]
        journal = [event["event"] for event in
                   scheduler.queue.journal_events()]
        assert journal.count("fleet_to_local") == 1


class TestRecovery:
    def test_scheduler_restart_resumes_without_rerunning(
            self, tmp_path, monkeypatch):
        import repro.service.scheduler as scheduler_module

        config = ServiceConfig(workers=0, unit_runs=2)
        first = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  config)
        cid = first.submit("dummy", TINY)
        # drive only the planning stage, then "crash" the scheduler
        first.tick()
        assert first.campaigns[cid].stage == "evidence"
        del first

        ran = []
        execute = scheduler_module.execute_unit

        def counting(unit, store):
            ran.append(unit.kind)
            return execute(unit, store)

        monkeypatch.setattr(scheduler_module, "execute_unit", counting)
        second = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                   config)
        assert second.recover() == [cid]
        assert second.wait([cid], timeout=240)
        assert "plan" not in ran  # its surviving result fast-forwarded
        assert ran.count("evidence") == 6  # 3 + 3 chunks of 2 runs
        results = second.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            store=tmp_path / "direct")

    def test_recovery_reads_specs_with_a_retired_field(self, tmp_path):
        """Queue specs keep the config's ``dataclasses.asdict`` form; a
        queue written while OwlConfig had ``columnar``, ``replica_batch``
        and ``vectorized`` recovers and runs its units to the direct
        report."""
        config = ServiceConfig(workers=0, unit_runs=2)
        first = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  config)
        cid = first.submit("dummy", TINY)
        for _ in range(2):  # plan, then evidence: the decide unit waits
            first.tick()
        del first
        queue = tmp_path / "queue"
        units = sorted((queue / "units").glob("*.json"))
        assert units  # pending units whose specs the fleet will read
        for path in [queue / "campaigns" / f"{cid}.json", *units]:
            data = json.loads(path.read_text())
            spec = data.get("spec", data)
            spec["config"].update(columnar=True, replica_batch=False,
                                  vectorized=False)
            path.write_text(json.dumps(data))
        spec = json.loads(units[0].read_text())["spec"]
        owl, _campaign, _inputs, _random = materialize(
            spec, TraceStore(tmp_path / "store"))
        assert owl.config == OwlConfig(**TINY)

        second = CampaignScheduler(tmp_path / "store", queue, config)
        assert second.recover() == [cid]
        assert second.wait([cid], timeout=240)
        results = second.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct_report_json(
            store=tmp_path / "direct")

    def test_new_submission_naming_a_retired_field_is_rejected(
            self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0))
        for field in ("columnar", "replica_batch", "vectorized"):
            with pytest.raises(TypeError, match=field):
                scheduler.submit("dummy", {**TINY, field: False})
        assert not scheduler.campaigns

    def test_requeue_past_budget_degrades_to_scheduler(self, tmp_path):
        """FLEET_TO_LOCAL: a unit the fleet keeps dropping runs locally."""
        config = ServiceConfig(workers=0, unit_runs=2, max_attempts=2)
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      config)
        cid = scheduler.submit("dummy", TINY)
        uid = f"{cid}.plan"
        # simulate the fleet losing the unit past its attempt budget
        scheduler.queue.claim(uid, "w9")
        scheduler._requeue(uid, reason="test loss 1")
        scheduler.queue.claim(uid, "w9")
        scheduler._requeue(uid, reason="test loss 2")
        assert scheduler.queue.result(uid) is not None  # ran locally
        kinds = [event.kind for event in scheduler.events]
        assert "fleet_to_local" in kinds
        assert scheduler.wait([cid], timeout=240)
        assert scheduler.results(cid)["report_json"] == direct_report_json(
            store=tmp_path / "direct")


class TestStatus:
    def test_status_rows(self, tmp_path):
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=2))
        row = scheduler.status(cid)
        assert row["stage"] == STAGE_COMPLETE
        assert row["workload"] == "dummy"
        everything = scheduler.status()
        assert cid in everything["campaigns"]

    def test_failed_campaign_reports_error(self, tmp_path, monkeypatch):
        import repro.service.scheduler as scheduler_module

        def explode(unit, store_root):
            raise RuntimeError("unit exploded")

        monkeypatch.setattr(scheduler_module, "execute_unit", explode)
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0))
        cid = scheduler.submit("dummy", TINY)
        assert scheduler.wait([cid], timeout=60)
        state = scheduler.campaigns[cid]
        assert state.stage == STAGE_FAILED
        assert "unit exploded" in state.error
        assert scheduler.results(cid)["stage"] == STAGE_FAILED
