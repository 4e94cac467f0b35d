"""Wait deadlines run on the monotonic clock, not the wall clock.

A wall-clock step (NTP correction, a VM resumed from suspend) must not
end a wait early or stretch it.  Each test swaps a module's ``time`` for
a clock whose ``time()`` jumps an hour ahead right after the deadline is
computed; a wait keyed to ``time.time()`` would give up at once, a
monotonic one keeps polling until the condition really holds.
"""

import time as real_time
import types

import pytest

from repro.service import client as client_module
from repro.service import scheduler as scheduler_module
from repro.service.client import ServiceClient
from repro.service.types import CampaignStatus

ADDRESS = ("http", ("127.0.0.1", 9))


class JumpingClock:
    """``time`` module stand-in: wall time leaps an hour after one read."""

    def __init__(self):
        self.reads = 0

    def time(self):
        self.reads += 1
        return real_time.time() + (3600.0 if self.reads > 1 else 0.0)

    monotonic = staticmethod(real_time.monotonic)

    @staticmethod
    def sleep(seconds):
        real_time.sleep(min(seconds, 0.001))


def answers(*values):
    """A callable returning *values* in turn, then the last one forever."""
    remaining = list(values)

    def call(*_args, **_kwargs):
        return remaining.pop(0) if len(remaining) > 1 else remaining[0]
    return call


@pytest.fixture
def jumping_clock(monkeypatch):
    clock = JumpingClock()
    monkeypatch.setattr(client_module, "time", clock)
    monkeypatch.setattr(scheduler_module, "time", clock)
    return clock


def status_row(stage):
    return {"cid": "c1", "workload": "dummy", "stage": stage}


def test_wait_until_up_survives_a_clock_jump(jumping_clock):
    client = ServiceClient(ADDRESS)
    client.ping = answers(False, False, True)
    client.wait_until_up(timeout=30.0, poll=0.001)


def test_wait_for_survives_a_clock_jump(jumping_clock):
    client = ServiceClient(ADDRESS)
    client.status = answers(*(CampaignStatus.from_row(status_row(stage))
                              for stage in ("planning", "evidence",
                                            "complete")))
    assert client.wait_for("c1", timeout=30.0, poll=0.001).complete


def test_scheduler_wait_survives_a_clock_jump(jumping_clock):
    campaign = types.SimpleNamespace(done=False)
    ticks = []

    def tick():
        ticks.append(1)
        campaign.done = len(ticks) >= 3

    # no doorbell: wait() polls with the patched module's sleep
    scheduler = types.SimpleNamespace(
        campaigns={"c1": campaign}, tick=tick,
        queue=types.SimpleNamespace(doorbell=lambda name: None),
        config=types.SimpleNamespace(poll_seconds=0.001))
    assert scheduler_module.CampaignScheduler.wait(scheduler, timeout=30.0)
    assert len(ticks) == 3


def test_timeouts_still_expire():
    """The monotonic deadline still ends a wait that never succeeds."""
    client = ServiceClient(ADDRESS)
    client.ping = answers(False)
    with pytest.raises(client_module.ServiceConnectionError):
        client.wait_until_up(timeout=0.05, poll=0.01)
