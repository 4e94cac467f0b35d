"""The client API: typed results and URL connect."""

import dataclasses
import threading

import pytest

from repro.cli import main as cli_main
from repro.errors import (
    CampaignError, ConfigError, ServiceConnectionError, ServiceError)
from repro.service import (
    CampaignResults, CampaignScheduler, CampaignStatus, ServiceClient,
    ServiceConfig, SubmitReceipt, parse_connect)
from repro.service.server import serve_forever

TINY = dict(fixed_runs=4, random_runs=4, seed=21, store_checkpoint_every=2)


@pytest.fixture
def service(tmp_path):
    """A live in-process service on a unix socket; shut down after."""
    scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  ServiceConfig(workers=0, unit_runs=2))
    url = f"unix://{tmp_path / 'owl.sock'}"
    address = parse_connect(url)
    thread = threading.Thread(target=serve_forever,
                              args=(scheduler, address), daemon=True)
    thread.start()
    client = ServiceClient(url)
    client.wait_until_up(timeout=30)
    yield client, url, scheduler
    try:
        client.shutdown()
    except (CampaignError, OSError):
        pass
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestConnectUrls:
    def test_unix_url(self):
        assert parse_connect("unix:///run/owl.sock") == \
            ("unix", "/run/owl.sock")

    def test_bare_path_reads_as_unix(self):
        assert parse_connect("/tmp/a.sock") == ("unix", "/tmp/a.sock")

    def test_tcp_url_is_refused_with_an_http_hint(self, capsys):
        with pytest.raises(ConfigError, match="http://HOST:PORT"):
            parse_connect("tcp://10.0.0.5:9000")
        with pytest.raises(SystemExit) as info:
            cli_main(["status", "--connect", "tcp://10.0.0.5:9000"])
        assert info.value.code == 2
        assert "http://HOST:PORT" in capsys.readouterr().err

    def test_http_url_defaults_its_port(self):
        assert parse_connect("http://owl.example:8750") == \
            ("http", ("owl.example", 8750))
        assert parse_connect("http://owl.example") == \
            ("http", ("owl.example", 8750))

    def test_unknown_scheme_is_a_config_error(self):
        with pytest.raises(ConfigError):
            parse_connect("ftp://owl.example:21")

    def test_client_accepts_url_and_legacy_tuple(self, tmp_path):
        path = str(tmp_path / "owl.sock")
        from_url = ServiceClient(f"unix://{path}")
        from_tuple = ServiceClient(("unix", path))
        assert from_url.address == from_tuple.address


class TestTypedResults:
    def test_submit_returns_frozen_receipt(self, service):
        client, _url, _scheduler = service
        receipt = client.submit("dummy", config=TINY)
        assert isinstance(receipt, SubmitReceipt)
        assert receipt.workload == "dummy"
        assert receipt.tenant == "anonymous"
        with pytest.raises(dataclasses.FrozenInstanceError):
            receipt.campaign = "c9999"
        client.wait_for(receipt.campaign, timeout=240)

    def test_status_and_results_are_typed(self, service):
        client, _url, _scheduler = service
        receipt = client.submit("dummy", config=TINY)
        final = client.wait_for(receipt.campaign, timeout=240)
        assert isinstance(final, CampaignStatus)
        assert final.complete and final.done and not final.failed
        results = client.results(receipt.campaign)
        assert isinstance(results, CampaignResults)
        assert results.complete
        assert results.report_key is not None
        report = results.report()
        assert report.to_json() == results.report_json

    def test_overview_aggregates_campaigns_and_tenants(self, service):
        client, url, _scheduler = service
        named = ServiceClient(url, tenant="alice")
        receipt = named.submit("dummy", config=TINY)
        named.wait_for(receipt.campaign, timeout=240)
        overview = client.overview()
        assert receipt.campaign in overview.campaigns
        assert overview.campaigns[receipt.campaign].tenant == "alice"
        assert "alice" in overview.tenants

    def test_unknown_campaign_raises_service_error(self, service):
        client, _url, _scheduler = service
        with pytest.raises(ServiceError):
            client.results("c9999")
        # and ServiceError still reads as the old CampaignError
        with pytest.raises(CampaignError):
            client.status("c9999")

    def test_unreachable_service_raises_connection_error(self, tmp_path):
        client = ServiceClient(f"unix://{tmp_path / 'missing.sock'}",
                               timeout=2.0)
        with pytest.raises(ServiceConnectionError):
            client.overview()
        # ServiceConnectionError doubles as the stdlib family
        with pytest.raises(OSError):
            client.overview()
        assert client.ping() is False

    def test_socket_watch_streams_to_terminal(self, service):
        client, _url, _scheduler = service
        receipt = client.submit("dummy", config=TINY)
        events = list(client.watch(receipt.campaign))
        assert events[0].stage is not None
        assert events[-1].terminal
        assert events[-1].results is not None
        assert events[-1].results.report_json is not None
