"""The service's adaptive stage machine: evidence → deciding loops.

An ``adaptive=True`` campaign replaces the single evidence + fold pass
with round-sliced evidence units and one decide unit per look, each of
which runs that look of ``Owl._phase3``; the stopping look also runs
``Owl._finish``, so the contract stays the strongest one available —
reports bit-identical to a direct in-process adaptive run — at any
worker count and any ``unit_runs`` partition, across injected worker
deaths.
"""

import json

import pytest

from repro.apps.registry import resolve
from repro.core.parallel import TraceRecordingPool
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import STAGE_COMPLETE
from repro.store.campaign import Campaign
from repro.store.store import TraceStore
from tests.service.test_service_identity import enqueued_units, run_service

ADAPTIVE = dict(fixed_runs=60, random_runs=60, adaptive=True,
                always_analyze=True, seed=13)


def direct_adaptive(tmp_path, workload="dummy", overrides=ADAPTIVE):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    return owl.detect(fixed_inputs(), random_input=random_input,
                      store=TraceStore(tmp_path / "direct"))


def segment_ranges(store, workload="dummy", overrides=ADAPTIVE):
    """Each evidence side's stored segment ranges, keyed by side."""
    program, fixed_inputs, _random = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    campaign = Campaign(store, workload, owl.config, owl.device_config)
    keys = {"random": campaign.evidence_key("random")}
    for value in fixed_inputs():
        keys.setdefault("fixed", campaign.evidence_key(
            "fixed", campaign.input_fingerprint(value)))
    ranges = {}
    for side, key in keys.items():
        prefix = campaign.segment_prefix(key)
        ranges[side] = sorted(
            tuple(int(run) for run in name[len(prefix):].split("-"))
            for name in store.keys_under(prefix))
    return ranges


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

    def test_early_stop_keeps_exactly_the_segments_of_its_boundary(
            self, tmp_path):
        direct = direct_adaptive(tmp_path)
        assert direct.adaptive.stopped_early
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=ADAPTIVE)
        assert scheduler.results(cid)["stage"] == STAGE_COMPLETE
        store = TraceStore(tmp_path / "store")
        recorded = {"fixed": direct.adaptive.fixed_recorded,
                    "random": direct.adaptive.random_recorded}
        for side, ranges in segment_ranges(store).items():
            # one unbroken chain of unit_runs-sized ranges, ending at
            # the stopping boundary: nothing past it, nothing doubled
            assert ranges[0][0] == 0 and ranges[-1][1] == recorded[side]
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert all(stop - start <= 7 for start, stop in ranges)
        assert store.entries(kind="evidence") == []

    def test_early_stopped_decide_units_record_no_run(self, tmp_path,
                                                      monkeypatch):
        """Each look's decide unit merges the segments the evidence
        units wrote at ``unit_runs=7`` — a partition other than its own
        ``store_checkpoint_every`` batches — and records nothing; the
        evidence units record each analysed run once."""
        direct = direct_adaptive(tmp_path)
        assert direct.adaptive.stopped_early
        analysed = (direct.adaptive.fixed_recorded
                    + direct.adaptive.random_recorded)
        recorded = []
        running = []
        execute = scheduler_module.execute_unit
        record = TraceRecordingPool.record_evidence

        def tracking(unit, store):
            running[:] = [unit.kind]
            return execute(unit, store)

        def counting(pool, values, keep_per_run=False):
            recorded.append((running[0], len(values)))
            return record(pool, values, keep_per_run=keep_per_run)

        monkeypatch.setattr(scheduler_module, "execute_unit", tracking)
        monkeypatch.setattr(TraceRecordingPool, "record_evidence", counting)
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=ADAPTIVE)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        assert {kind for kind, _runs in recorded} == {"evidence"}
        assert sum(runs for _kind, runs in recorded) == analysed
        assert scheduler.campaigns[cid].report["cached_runs"] == analysed

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
    def test_decide_over_completed_side_leaves_no_segment(self, tmp_path):
        """A classic campaign completes the rep-0 fixed side and the random
        side; a later adaptive campaign over every representative meets
        them at its first look.  A completed side stands in at the final
        look only, so every interim look's decide unit merges the
        completed sides' interim segments as a cold run's look would,
        the campaign decides after as many looks as a storeless run and
        reports its bytes.  The segments recorded for the completed
        sides go when the campaign ends; the early-stopped rep-1 side
        keeps its own, up to the stopping boundary."""
        classic = dict(ADAPTIVE, adaptive=False)
        everything = dict(ADAPTIVE, analyze_all_representatives=True)
        program, fixed_inputs, random_input = resolve("dummy")
        owl = Owl(program, name="dummy", config=OwlConfig(**everything))
        direct = owl.detect(fixed_inputs(), random_input=random_input)
        assert len(direct.per_representative) > 1
        assert direct.adaptive.stopped_early

        scheduler = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=7))
        for overrides in (classic, everything):
            cid = scheduler.submit("dummy", overrides)
            assert scheduler.wait([cid], timeout=240.0)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        looks = [event for event in decide_events(scheduler)
                 if event["campaign"] == cid]
        assert len(looks) == direct.adaptive.rounds_executed

        store = TraceStore(tmp_path / "store")
        campaign = Campaign(store, "dummy", owl.config, owl.device_config)
        inputs = fixed_inputs()
        first, second = (campaign.evidence_key(
            "fixed", campaign.input_fingerprint(inputs[index]))
            for index in scheduler.campaigns[cid].plan["rep_indices"])
        for key in (first, campaign.evidence_key("random")):
            assert key in store
            assert store.keys_under(campaign.segment_prefix(key)) == []
        assert second not in store
        _evidence, done = campaign.extend_from_segments(
            second, None, 0, owl.config.fixed_runs)
        assert done == direct.adaptive.fixed_recorded

    @pytest.mark.parametrize("rounds", [None, 2])
    def test_new_seed_records_the_shared_side_at_interim_looks_only(
            self, tmp_path, rounds):
        """A classic campaign completes the fixed side; an adaptive one
        with another seed shares it.  Its interim looks still get fixed
        evidence units, its final look none, and it reports a storeless
        adaptive run's bytes after as many looks (two rounds: stopping
        waits for the final look)."""
        adaptive = dict(ADAPTIVE, seed=14, adaptive_rounds=rounds)
        program, fixed_inputs, random_input = resolve("dummy")
        direct = Owl(program, name="dummy",
                     config=OwlConfig(**adaptive)).detect(
            fixed_inputs(), random_input=random_input)
        assert direct.adaptive.stopped_early == (rounds is None)

        scheduler = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=7))
        for overrides in (dict(ADAPTIVE, adaptive=False), adaptive):
            cid = scheduler.submit("dummy", overrides)
            assert scheduler.wait([cid], timeout=240.0)
        assert scheduler.results(cid)["report_json"] == \
            direct.report.to_json()
        looks = [event for event in decide_events(scheduler)
                 if event["campaign"] == cid]
        assert len(looks) == direct.adaptive.rounds_executed
        last_interim = [look.fixed_boundary for look in direct.adaptive.rounds
                        if not look.final][-1]
        fixed_stops = [int(uid.rsplit("-", 1)[1])
                       for uid in enqueued_units(scheduler, cid)
                       if ".evidence.fixed." in uid]
        assert fixed_stops and max(fixed_stops) == last_interim
        store = TraceStore(tmp_path / "store")
        assert segment_ranges(store, overrides=adaptive)["fixed"] == []
