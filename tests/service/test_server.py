"""The asyncio front door: HTTP/JSON over a unix socket."""

import threading

import pytest

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import CampaignError
from repro.service import CampaignScheduler, ServiceClient, ServiceConfig
from repro.service.server import serve_forever

TINY = dict(fixed_runs=4, random_runs=4, seed=21, store_checkpoint_every=2)


@pytest.fixture
def service(tmp_path):
    """A live in-process service on a unix socket; shut down after."""
    scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  ServiceConfig(workers=0, unit_runs=2))
    address = ("unix", str(tmp_path / "owl.sock"))
    thread = threading.Thread(target=serve_forever,
                              args=(scheduler, address), daemon=True)
    thread.start()
    client = ServiceClient(f"unix://{tmp_path / 'owl.sock'}")
    client.wait_until_up(timeout=30)
    yield client, scheduler
    try:
        client.shutdown()
    except (CampaignError, OSError):
        pass  # already shut down by the test
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestProtocol:
    def test_ping(self, service):
        client, _scheduler = service
        assert client.ping() is True


class TestSubmitToResults:
    def test_full_round_trip_matches_direct_detect(self, service, tmp_path):
        client, _scheduler = service
        cid = client.submit("dummy", config=TINY).campaign
        final = client.wait_for(cid, timeout=240)
        assert final.stage == "complete"
        results = client.results(cid)

        program, fixed_inputs, random_input = resolve("dummy")
        owl = Owl(program, name="dummy", config=OwlConfig(**TINY))
        direct = owl.detect(fixed_inputs(), random_input=random_input,
                            store=tmp_path / "direct")
        assert results.report_json == direct.report.to_json()

    def test_concurrent_tenants_coalesce(self, service):
        client, scheduler = service
        cids = [client.submit("dummy", config=TINY).campaign
                for _ in range(3)]
        for cid in cids:
            assert client.wait_for(cid, timeout=240).stage == "complete"
        reports = {client.results(cid).report_json for cid in cids}
        assert len(reports) == 1
        coalesced = [cid for cid in cids
                     if scheduler.campaigns[cid].coalesced_into is not None]
        assert len(coalesced) == 2

    def test_status_lists_campaigns(self, service):
        client, _scheduler = service
        cid = client.submit("dummy", config=TINY).campaign
        client.wait_for(cid, timeout=240)
        assert cid in client.overview().campaigns
        assert client.status(cid).stage == "complete"

    def test_results_for_unknown_campaign_errors(self, service):
        client, _scheduler = service
        with pytest.raises(CampaignError):
            client.results("c9999")


class TestShutdown:
    def test_shutdown_stops_the_server(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0))
        address = ("unix", str(tmp_path / "owl.sock"))
        thread = threading.Thread(target=serve_forever,
                                  args=(scheduler, address), daemon=True)
        thread.start()
        client = ServiceClient(address)
        client.wait_until_up(timeout=30)
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not client.ping()
        assert scheduler is not None  # scheduler outlives the server

    def test_shutdown_removes_the_unix_socket(self, tmp_path):
        """A restart that waits for the socket file must not find a dead
        one left by the previous server."""
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0))
        path = tmp_path / "owl.sock"
        thread = threading.Thread(target=serve_forever,
                                  args=(scheduler, ("unix", str(path))),
                                  daemon=True)
        thread.start()
        client = ServiceClient(f"unix://{path}")
        client.wait_until_up(timeout=30)
        assert path.is_socket()
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not path.exists()
