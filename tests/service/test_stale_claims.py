"""A claim won from a stale listing never re-runs a finished unit.

``pending_units()`` is a snapshot, and a unit's claim is released once
its result is written, so a worker still working through an old listing
can win a fresh claim on a unit another worker already finished.
The stopping decide unit is the case checked here: a re-run would merge
every side's segments up to the look, analyse it and write the report
again, for a result the scheduler has already harvested.  The stale
worker must execute nothing.
"""

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service import scheduler as scheduler_module
from repro.service.queue import JobQueue
from repro.service.scheduler import STAGE_COMPLETE
from repro.service.worker import worker_loop

ADAPTIVE = dict(fixed_runs=64, random_runs=64, adaptive=True)


def _direct_report(config):
    program, fixed_inputs, random_input = resolve("aes")
    owl = Owl(program, name="aes", config=OwlConfig(**config))
    return owl.detect(fixed_inputs(),
                      random_input=random_input).report.to_json()


def test_stale_worker_does_not_rerun_the_stopping_decide(tmp_path,
                                                         monkeypatch):
    queue_root, store_root = tmp_path / "queue", tmp_path / "store"
    scheduler = CampaignScheduler(
        store_root, queue_root,
        ServiceConfig(workers=0, external_workers=True))
    cid = scheduler.submit("aes", ADAPTIVE)
    state = scheduler.campaigns[cid]
    scheduler.tick()
    while not state.done:
        worker_loop(queue_root, store_root, "w0", max_loops=1)
        scheduler.tick()
    assert state.stage == STAGE_COMPLETE
    stopping_decide = f"{cid}.decide.{state.look:02d}"
    finished = scheduler.queue.result(stopping_decide)
    assert finished["payload"]["stop"]
    assert finished["payload"]["report"] == state.report

    # a second worker still holds a listing from before the decide ran
    listing = JobQueue.pending_units
    stale = [stopping_decide]

    def stale_listing(queue):
        pending = listing(queue)
        if stale:
            pending = sorted(stale + pending)
            stale.clear()
        return pending

    monkeypatch.setattr(JobQueue, "pending_units", stale_listing)
    executed = worker_loop(queue_root, store_root, "w1", max_loops=1)
    assert executed == 0
    assert not stale  # the stale listing was served
    assert scheduler.queue.claimed_units() == []
    assert scheduler.queue.result(stopping_decide) == finished

    assert state.report["cached_runs"] > 0  # the evidence units' segments
    assert scheduler.results(cid)["report_json"] == \
        _direct_report(ADAPTIVE)


def test_scheduler_releases_a_claim_on_a_finished_unit(tmp_path,
                                                       monkeypatch):
    """The in-process path: a unit whose result landed since it was
    listed (its spec still on disk, as after a crash before the unlink)
    is released, not executed."""
    scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  ServiceConfig(workers=0))
    cid = scheduler.submit("dummy", dict(fixed_runs=4, random_runs=4))
    assert scheduler.wait([cid], timeout=120)
    uid = f"{cid}.plan"
    unit = scheduler.queue.load_unit(uid)
    assert unit is None  # retired on completion
    scheduler.queue._write_json(
        scheduler.queue.unit_path(uid),
        {"uid": uid, "kind": "plan", "campaign": cid, "spec": {},
         "params": {}, "attempts": 0})

    def explode(unit, store):
        raise AssertionError(f"re-executed {unit.uid}")

    monkeypatch.setattr(scheduler_module, "execute_unit", explode)
    scheduler._execute_local(uid)
    assert scheduler.queue.claimed_units() == []
    assert scheduler.queue.result(uid)["status"] == "done"
