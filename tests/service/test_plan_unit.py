"""The plan unit is the service's whole phase 1 and 2.

A campaign's first stage is one plan unit that records the traces the
store lacks through ``Owl.record_traces`` (one replica batch, exactly as
``Owl.detect`` records them) and filters them; there is no per-input
trace stage.  Queues written while there was one still recover.
"""

import dataclasses

import pytest

from repro.apps.registry import resolve
from repro.core.parallel import TraceRecordingPool
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service.scheduler import STAGE_COMPLETE
from repro.service.units import WorkUnit

TINY = dict(fixed_runs=4, random_runs=4, seed=7, store_checkpoint_every=2)

#: the programs the owlbench service-fleet workload submits
SERVICE_PROGRAMS = ("aes", "rsa", "dummy", "torch-conv2d", "nvjpeg-decode",
                    "torch-nllloss")


def direct_report_json(workload, overrides):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    return owl.detect(fixed_inputs(),
                      random_input=random_input).report.to_json()


def scheduler_for(tmp_path, **fields):
    return CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                             ServiceConfig(workers=0, unit_runs=2, **fields))


def enqueued_kinds(scheduler):
    return [event["kind"] for event in scheduler.queue.journal_events()
            if event["event"] == "enqueued"]


@pytest.mark.parametrize("analyzer", ["ks", "mi", "both"])
@pytest.mark.parametrize("workload", SERVICE_PROGRAMS)
def test_service_report_matches_direct_detect(tmp_path, workload, analyzer):
    overrides = dict(TINY, analyzer=analyzer)
    scheduler = scheduler_for(tmp_path)
    cid = scheduler.submit(workload, overrides)
    assert scheduler.wait([cid], timeout=240)
    results = scheduler.results(cid)
    assert results["stage"] == STAGE_COMPLETE
    assert results["report_json"] == direct_report_json(workload, overrides)
    assert enqueued_kinds(scheduler).count("plan") == 1


def test_cold_campaign_records_phase_one_in_the_plan_unit(
        tmp_path, monkeypatch):
    calls = []
    record = TraceRecordingPool.record_traces

    def counting(pool, inputs):
        calls.append(len(inputs))
        return record(pool, inputs)

    monkeypatch.setattr(TraceRecordingPool, "record_traces", counting)
    scheduler = scheduler_for(tmp_path)
    cid = scheduler.submit("aes", TINY)
    assert scheduler.campaigns[cid].stage == "planning"
    assert scheduler.campaigns[cid].pending == [f"{cid}.plan"]
    assert scheduler.wait([cid], timeout=240)
    kinds = enqueued_kinds(scheduler)
    assert kinds[0] == "plan" and kinds.count("plan") == 1
    assert "trace" not in kinds
    # both fixed inputs in one pool call, and no other unit records one
    _program, fixed_inputs, _random = resolve("aes")
    assert calls == [len(fixed_inputs())] == [2]
    plan = scheduler.queue.result(f"{cid}.plan")["payload"]
    assert plan["recorded"] == 2 and plan["cached_traces"] == 0


def test_queue_with_a_pending_trace_unit_recovers(tmp_path):
    """A queue written while campaigns began with one ``trace`` unit per
    input: the orphaned spec is retired on recovery, the campaign runs
    from its plan unit to the direct report."""
    queue = tmp_path / "queue"
    first = scheduler_for(tmp_path)
    spec = {"workload": "dummy",
            "config": dataclasses.asdict(OwlConfig(**TINY))}
    first.queue.save_campaign("c0001", dict(spec, tenant="anonymous"))
    for index in range(2):
        first.queue.enqueue(WorkUnit(
            uid=f"c0001.trace.{index:04d}", kind="trace", campaign="c0001",
            spec=spec, params={"index": index}))
    del first

    second = scheduler_for(tmp_path)
    assert second.recover() == ["c0001"]
    assert second.queue.pending_units() == ["c0001.plan"]
    assert second.wait(["c0001"], timeout=240)
    results = second.results("c0001")
    assert results["stage"] == STAGE_COMPLETE
    assert results["report_json"] == direct_report_json("dummy", TINY)
    retired = [event for event in second.queue.journal_events()
               if event["event"] == "retired"]
    assert [event["unit"] for event in retired] == [
        "c0001.trace.0000", "c0001.trace.0001"]
    for index in range(2):
        outcome = second.queue.result(f"c0001.trace.{index:04d}")
        assert outcome["status"] == "done"
    assert not (queue / "units" / "c0001.trace.0000.json").exists()
