"""An interrupt during a unit is a worker death, not a unit failure.

Ctrl-C on ``owl serve`` reaches its fleet workers too (one process
group), and ``SystemExit`` is how a process is asked to stop.  Neither
says anything about the unit, so ``worker_loop`` lets both propagate
with the claim held and no result written: the scheduler re-queues the
unit once its lease expires, exactly as for a worker that died.  An
``error`` result instead would fail the tenant's campaign for good,
since ``recover()`` never re-runs a unit that has a result.
"""

import time

import pytest

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service import worker as worker_module
from repro.service.scheduler import STAGE_COMPLETE
from repro.service.worker import worker_loop

TINY = dict(fixed_runs=4, random_runs=4, seed=5)
LEASE = 0.3


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_interrupted_unit_is_requeued_not_failed(tmp_path, monkeypatch,
                                                 interrupt):
    queue_root, store_root = tmp_path / "queue", tmp_path / "store"
    scheduler = CampaignScheduler(
        store_root, queue_root,
        ServiceConfig(workers=0, external_workers=True,
                      lease_seconds=LEASE))
    cid = scheduler.submit("dummy", TINY)
    plan = f"{cid}.plan"

    def interrupted(unit, store):
        raise interrupt()

    with monkeypatch.context() as patch:
        patch.setattr(worker_module, "execute_unit", interrupted)
        with pytest.raises(interrupt):
            worker_loop(queue_root, store_root, "w0", max_loops=1,
                        lease_seconds=LEASE)
    assert scheduler.queue.result(plan) is None
    # the claim stays held, as a dead worker's does
    assert scheduler.queue.claim_info(plan)["worker"] == "w0"

    scheduler.tick()  # the first sighting starts the lease window
    time.sleep(2 * LEASE)
    scheduler.tick()
    events = [event["event"] for event in scheduler.queue.journal_events()]
    assert "lease_expired" in events and "requeued" in events

    state = scheduler.campaigns[cid]
    deadline = time.monotonic() + 240
    while not state.done:
        assert time.monotonic() < deadline, "campaign did not finish"
        worker_loop(queue_root, store_root, "w1", max_loops=1,
                    lease_seconds=LEASE)
        scheduler.tick()
    assert state.stage == STAGE_COMPLETE, state.error
    program, fixed_inputs, random_input = resolve("dummy")
    direct = Owl(program, name="dummy", config=OwlConfig(**TINY)).detect(
        fixed_inputs(), random_input=random_input)
    assert scheduler.results(cid)["report_json"] == direct.report.to_json()
