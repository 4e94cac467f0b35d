"""The service's adaptive stage machine: evidence → deciding loops.

An ``adaptive=True`` campaign replaces the single evidence + fold pass
with round-sliced evidence units and one decide unit per look; the
terminal report unit is still a plain ``Owl.detect`` against the warm
store, so the contract stays the strongest one available — reports
bit-identical to a direct in-process adaptive run — at any worker count
and any ``unit_runs`` partition, across injected worker deaths.
"""

import json

import pytest

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service.scheduler import STAGE_COMPLETE
from tests.service.test_service_identity import run_service

ADAPTIVE = dict(fixed_runs=60, random_runs=60, adaptive=True,
                always_analyze=True, seed=13)


def direct_adaptive(tmp_path, workload="dummy", overrides=ADAPTIVE):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    from repro.store.store import TraceStore
    return owl.detect(fixed_inputs(), random_input=random_input,
                      store=TraceStore(tmp_path / "direct"))


def decide_events(scheduler):
    journal = scheduler.queue.root / "journal.jsonl"
    return [json.loads(line) for line in journal.read_text().splitlines()
            if '"decided"' in line]


class TestAdaptiveServiceIdentity:
    def test_report_matches_direct_adaptive_detect(self, tmp_path):
        direct = direct_adaptive(tmp_path)
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=ADAPTIVE)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        # the campaign actually looped through decide units and stopped
        # at the same round the direct run did
        events = decide_events(scheduler)
        assert events, "no decide units ran"
        assert events[-1]["stop"]
        assert len(events) == direct.adaptive.rounds_executed

    @pytest.mark.parametrize("unit_runs", [1, 10, 100])
    def test_any_unit_partition_is_identical(self, tmp_path, unit_runs):
        direct = direct_adaptive(tmp_path)
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=unit_runs),
            overrides=ADAPTIVE)
        assert (scheduler.results(cid)["report_json"]
                == direct.report.to_json())

    def test_early_stop_collects_the_round_chunks(self, tmp_path):
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=ADAPTIVE)
        assert scheduler.results(cid)["stage"] == STAGE_COMPLETE
        from repro.store.store import TraceStore
        store = TraceStore(tmp_path / "store")
        leftovers = [entry.key for entry in store.entries()
                     if entry.key.startswith("servicechunk/")]
        assert leftovers == []

    def test_fleet_adaptive_identical_across_worker_death(self, tmp_path):
        direct = direct_adaptive(tmp_path)
        scheduler, (cid,) = run_service(
            tmp_path,
            ServiceConfig(workers=2, unit_runs=7, die_after=2,
                          lease_seconds=120.0),
            overrides=ADAPTIVE)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        assert scheduler.fleet.restarts == 2


class TestCompletedSides:
    def test_decide_over_completed_side_collects_every_chunk(self,
                                                             tmp_path):
        """A classic campaign completes the rep-0 fixed side and the random
        side; a later adaptive campaign over every representative meets
        them at its first look.  The decide unit must still fold the
        remaining side, stop, and leave no chunk blob behind, and the
        report must equal a direct adaptive run over a store the same
        classic run warmed."""
        from repro.store.store import TraceStore
        classic = dict(ADAPTIVE, adaptive=False)
        everything = dict(ADAPTIVE, analyze_all_representatives=True)
        program, fixed_inputs, random_input = resolve("dummy")
        direct_store = TraceStore(tmp_path / "direct")
        Owl(program, name="dummy", config=OwlConfig(**classic)).detect(
            fixed_inputs(), random_input=random_input, store=direct_store)
        direct = Owl(program, name="dummy",
                     config=OwlConfig(**everything)).detect(
            fixed_inputs(), random_input=random_input, store=direct_store)
        assert len(direct.per_representative) > 1

        scheduler = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=7))
        for overrides in (classic, everything):
            cid = scheduler.submit("dummy", overrides)
            assert scheduler.wait([cid], timeout=240.0)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        store = TraceStore(tmp_path / "store")
        assert [entry.key for entry in store.entries()
                if entry.key.startswith("servicechunk/")] == []
