"""Service ≡ direct across the whole workload registry.

One in-process scheduler (``workers=0``, ``unit_runs=3``) runs every
registry workload in four waves, each waiting for the one before:

* ``ks`` at 8+8, seed 1: every side cold;
* ``mi`` at 8+8, seed 1: every side complete (the evidence scope leaves
  the analyzer out), so the plan unit, then ``decide.00`` only;
* ``both`` at 8+8, seed 2: the fixed side shared, the random side cold;
* adaptive at 48+48 with looks at 8, 16 and 32 runs: some workloads stop
  early, others exhaust the budget.

The one-class workloads end at their plan unit in every wave.  Every
report must equal a storeless ``Owl.detect``'s bytes, and every
campaign must end on its plan unit or on a decide unit.
"""

import pytest

from repro.apps.registry import resolve, workloads
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig

WORKLOADS = sorted(workloads())
CLASSIC = dict(fixed_runs=8, random_runs=8)
WAVES = {
    "ks-seed1": dict(CLASSIC, analyzer="ks", seed=1),
    "mi-seed1": dict(CLASSIC, analyzer="mi", seed=1),
    "both-seed2": dict(CLASSIC, analyzer="both", seed=2),
    "adaptive": dict(fixed_runs=48, random_runs=48, adaptive=True,
                     adaptive_rounds=(8, 16, 32)),
}


@pytest.fixture(scope="module")
def service_runs(tmp_path_factory):
    """(wave, workload) → the campaign's report JSON, its enqueued unit
    ids and its number of ``decided`` looks."""
    root = tmp_path_factory.mktemp("matrix")
    scheduler = CampaignScheduler(root / "store", root / "queue",
                                  ServiceConfig(workers=0, unit_runs=3))
    cids = {}
    for wave, overrides in WAVES.items():
        batch = {(wave, workload): scheduler.submit(workload, overrides)
                 for workload in WORKLOADS}
        assert scheduler.wait(list(batch.values()), timeout=600)
        cids.update(batch)
    events = scheduler.queue.journal_events()
    runs = {}
    for key, cid in cids.items():
        mine = [event for event in events if event.get("campaign") == cid]
        runs[key] = {
            "report_json": scheduler.results(cid)["report_json"],
            "units": [event["unit"] for event in mine
                      if event["event"] == "enqueued"],
            "looks": sum(event["event"] == "decided" for event in mine)}
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("wave", WAVES)
def test_service_report_equals_storeless_detect(service_runs, wave,
                                                workload):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**WAVES[wave]))
    direct = owl.detect(fixed_inputs(), random_input=random_input)
    run = service_runs[wave, workload]
    assert run["report_json"] == direct.report.to_json()
    if direct.adaptive is not None:
        assert run["looks"] == direct.adaptive.rounds_executed


@pytest.mark.parametrize("wave", WAVES)
def test_every_campaign_ends_on_its_plan_or_a_decide_unit(service_runs,
                                                          wave):
    for workload in WORKLOADS:
        units = service_runs[wave, workload]["units"]
        assert units[0].endswith(".plan")
        assert len(units) == 1 or ".decide." in units[-1], units
        assert not [uid for uid in units if uid.endswith(".report")]
        if wave == "mi-seed1" and len(units) > 1:
            assert [uid.split(".", 1)[1] for uid in units] == [
                "plan", "decide.00"]
