"""The HTTP/JSON front end: routes, real statuses, watch streams."""

import http.client
import json
import socket
import threading

import pytest

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import AuthError, CampaignError, QuotaError, ServiceError
from repro.service import (
    CampaignScheduler, ServiceClient, ServiceConfig, TenantQuota)
from repro.service.server import serve_forever

TINY = dict(fixed_runs=4, random_runs=4, seed=21, store_checkpoint_every=2)


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _start(tmp_path, config=None, tokens=None):
    scheduler = CampaignScheduler(
        tmp_path / "store", tmp_path / "queue",
        config or ServiceConfig(workers=0, unit_runs=2))
    port = _free_port()
    thread = threading.Thread(
        target=serve_forever,
        args=(scheduler, ("http", ("127.0.0.1", port))),
        kwargs={"tokens": tokens}, daemon=True)
    thread.start()
    return scheduler, f"http://127.0.0.1:{port}", port, thread


@pytest.fixture
def http_service(tmp_path):
    """A live in-process service behind the HTTP front end (open mode)."""
    scheduler, url, port, thread = _start(tmp_path)
    client = ServiceClient(url)
    client.wait_until_up(timeout=30)
    yield client, url, port, scheduler
    try:
        client.shutdown()
    except (CampaignError, OSError):
        pass
    thread.join(timeout=30)
    assert not thread.is_alive()


def _raw(port: int, method: str, path: str, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=body,
                           headers=headers or {})
        response = connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload.decode("utf-8"))
    finally:
        connection.close()


class TestRouting:
    def test_ping(self, http_service):
        client, _url, port, _scheduler = http_service
        assert client.ping() is True
        status, payload = _raw(port, "GET", "/v1/ping")
        assert status == 200
        assert payload["ok"] is True
        assert payload["authenticated"] is False

    def test_unknown_route_is_404(self, http_service):
        _client, _url, port, _scheduler = http_service
        status, payload = _raw(port, "GET", "/nope")
        assert status == 404
        assert payload["ok"] is False

    def test_unknown_campaign_is_404(self, http_service):
        _client, _url, port, _scheduler = http_service
        status, payload = _raw(port, "GET", "/v1/campaigns/c9999/results")
        assert status == 404
        assert payload["code"] == "not_found"

    def test_bad_body_is_400(self, http_service):
        _client, _url, port, _scheduler = http_service
        status, payload = _raw(port, "POST", "/v1/campaigns",
                               body=b"not json")
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_retired_config_field_is_400(self, http_service):
        _client, _url, port, scheduler = http_service
        for field in ("columnar", "replica_batch", "vectorized"):
            body = json.dumps({"workload": "dummy",
                               "config": {**TINY, field: False}})
            status, payload = _raw(port, "POST", "/v1/campaigns",
                                   body=body.encode("utf-8"))
            assert status == 400
            assert payload["code"] == "bad_request"
            assert field in payload["error"]
        assert not scheduler.campaigns

    def test_non_http_garbage_does_not_kill_the_server(self, http_service):
        client, _url, port, _scheduler = http_service
        raw = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            raw.sendall(b"\x00\x01garbage\r\n\r\n")
            raw.recv(4096)
        finally:
            raw.close()
        assert client.ping() is True


@pytest.fixture(params=["unix", "http"])
def any_address_service(request, tmp_path):
    """A live service on each address kind: (address, client)."""
    scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  ServiceConfig(workers=0, unit_runs=2))
    if request.param == "unix":
        address = ("unix", str(tmp_path / "owl.sock"))
    else:
        address = ("http", ("127.0.0.1", _free_port()))
    thread = threading.Thread(target=serve_forever,
                              args=(scheduler, address), daemon=True)
    thread.start()
    client = ServiceClient(address)
    client.wait_until_up(timeout=30)
    yield address, client
    client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _raw_reply(address, data: bytes) -> bytes:
    """Send *data* on a fresh connection; everything the server answers."""
    kind, target = address
    if kind == "unix":
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(target)
    else:
        raw = socket.create_connection(target, timeout=10)
    with raw:
        raw.sendall(data)
        chunks = []
        while True:
            chunk = raw.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestOverlongLines:
    """A line past the stream reader's 64 KiB limit is a malformed
    request: it gets a 400, and the server keeps serving."""

    @pytest.mark.parametrize("request_bytes", [
        b"GET /v1/ping HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    ], ids=["header", "path"])
    def test_overlong_line_is_400(self, any_address_service,
                                  request_bytes):
        address, client = any_address_service
        assert _raw_reply(address, request_bytes).startswith(
            b"HTTP/1.1 400")
        assert client.ping() is True


class TestRoundTrip:
    def test_report_bytes_match_direct_detect(self, http_service,
                                              tmp_path):
        client, _url, _port, _scheduler = http_service
        receipt = client.submit("dummy", config=TINY)
        final = client.wait_for(receipt.campaign, timeout=240)
        assert final.complete
        results = client.results(receipt.campaign)

        program, fixed_inputs, random_input = resolve("dummy")
        owl = Owl(program, name="dummy", config=OwlConfig(**TINY))
        direct = owl.detect(fixed_inputs(), random_input=random_input,
                            store=tmp_path / "direct")
        assert results.report_json == direct.report.to_json()

    def test_status_carries_tenant_header_identity(self, http_service):
        client, url, _port, _scheduler = http_service
        named = ServiceClient(url, tenant="alice")
        receipt = named.submit("dummy", config=TINY)
        assert receipt.tenant == "alice"
        row = client.status(receipt.campaign)
        assert row.tenant == "alice"
        named.wait_for(receipt.campaign, timeout=240)


class TestWatch:
    def test_watch_streams_to_terminal_event(self, http_service):
        client, _url, _port, _scheduler = http_service
        receipt = client.submit("dummy", config=TINY)
        events = list(client.watch(receipt.campaign))
        assert events, "watch yielded nothing"
        # the first event re-synchronises: it reports the current stage
        assert events[0].stage is not None
        assert events[-1].terminal
        assert events[-1].event == "complete"
        assert events[-1].results is not None
        assert events[-1].results.report_json is not None
        # the events in between are monotone stage transitions
        stages = [event.stage for event in events]
        assert len(stages) == len(set(stages))

    def test_watch_unknown_campaign_raises(self, http_service):
        client, _url, _port, _scheduler = http_service
        with pytest.raises(ServiceError):
            list(client.watch("c9999"))

    def test_reconnect_after_disconnect_resyncs(self, http_service):
        """Dropping a watch stream loses nothing: a new stream's first
        event reports the current stage, and the terminal event still
        carries the full results payload."""
        client, _url, port, _scheduler = http_service
        receipt = client.submit("dummy", config=TINY)
        # open a stream and hang up after the first event
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        connection.request(
            "GET", f"/v1/campaigns/{receipt.campaign}/watch")
        response = connection.getresponse()
        assert response.status == 200
        first = json.loads(response.readline())
        assert first["ok"] is True
        connection.close()  # mid-stream disconnect
        # the server survives and a fresh watch completes normally
        events = list(client.watch(receipt.campaign))
        assert events[0].stage is not None
        assert events[-1].terminal
        assert events[-1].results.report_json is not None


class TestAuth:
    @pytest.fixture
    def authed(self, tmp_path):
        scheduler, url, port, thread = _start(
            tmp_path, tokens={"sekrit": "alice", "hunter2": "bob"})
        client = ServiceClient(url, token="sekrit")
        client.wait_until_up(timeout=30)
        yield url, port, client
        try:
            client.shutdown()
        except (CampaignError, OSError):
            pass
        thread.join(timeout=30)

    def test_missing_token_is_401(self, authed):
        _url, port, _client = authed
        status, payload = _raw(port, "GET", "/v1/campaigns")
        assert status == 401
        assert payload["code"] == "auth"

    def test_unknown_token_is_401(self, authed):
        _url, port, _client = authed
        status, payload = _raw(
            port, "GET", "/v1/campaigns",
            headers={"Authorization": "Bearer wrong"})
        assert status == 401

    def test_client_raises_autherror(self, authed):
        url, _port, _client = authed
        with pytest.raises(AuthError):
            ServiceClient(url).overview()
        with pytest.raises(AuthError):
            ServiceClient(url, token="wrong").submit("dummy", config=TINY)

    def test_token_is_the_identity(self, authed):
        """An authenticated request cannot bill another tenant."""
        url, _port, client = authed
        masquerading = ServiceClient(url, token="sekrit", tenant="bob")
        receipt = masquerading.submit("dummy", config=TINY)
        assert receipt.tenant == "alice"
        client.wait_for(receipt.campaign, timeout=240)

    def test_watch_rejects_bad_token(self, authed):
        url, _port, _client = authed
        with pytest.raises(AuthError):
            list(ServiceClient(url).watch("c0001"))


class TestQuota:
    def test_campaign_quota_is_429(self, tmp_path):
        config = ServiceConfig(
            workers=0, unit_runs=2,
            quotas={"alice": TenantQuota(max_campaigns=1)})
        scheduler, url, port, thread = _start(
            tmp_path, config=config, tokens={"sekrit": "alice"})
        client = ServiceClient(url, token="sekrit")
        client.wait_until_up(timeout=30)
        try:
            first = client.submit("dummy", config=TINY)
            with pytest.raises(QuotaError):
                client.submit("dummy", config=dict(TINY, seed=99))
            status, payload = _raw(
                port, "POST", "/v1/campaigns",
                body=json.dumps({"workload": "dummy",
                                 "config": dict(TINY, seed=77)}),
                headers={"Authorization": "Bearer sekrit",
                         "Content-Type": "application/json"})
            assert status == 429
            assert payload["code"] == "quota"
            # quota releases as soon as the active campaign is terminal
            client.wait_for(first.campaign, timeout=240)
            second = client.submit("dummy", config=dict(TINY, seed=99))
            client.wait_for(second.campaign, timeout=240)
        finally:
            try:
                client.shutdown()
            except (CampaignError, OSError):
                pass
            thread.join(timeout=30)
