"""The service verbs end-to-end through ``owl``: --connect, exit codes.

Exit-code contract under test (cli module docstring): 0 success,
1 campaign failure / leaks / results not ready, 2 configuration or
usage errors, 3 unreachable service or rejected credentials/quota.
"""

import threading

import pytest

from repro.apps.registry import resolve
from repro.cli import main as cli_main
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import CampaignError
from repro.service import (
    CampaignScheduler, ServiceClient, ServiceConfig, TenantQuota)
from repro.service.server import serve_forever

TINY_ARGS = ["--fixed-runs", "4", "--random-runs", "4", "--seed", "21"]
TINY = dict(fixed_runs=4, random_runs=4, seed=21)


def _start(tmp_path, config=None, tokens=None):
    scheduler = CampaignScheduler(
        tmp_path / "store", tmp_path / "queue",
        config or ServiceConfig(workers=0, unit_runs=2))
    url = f"unix://{tmp_path / 'owl.sock'}"
    thread = threading.Thread(
        target=serve_forever,
        args=(scheduler, ("unix", str(tmp_path / "owl.sock"))),
        kwargs={"tokens": tokens}, daemon=True)
    thread.start()
    return scheduler, url, thread


@pytest.fixture
def service(tmp_path):
    scheduler, url, thread = _start(tmp_path)
    client = ServiceClient(url)
    client.wait_until_up(timeout=30)
    yield url, client, scheduler
    try:
        client.shutdown()
    except (CampaignError, OSError):
        pass
    thread.join(timeout=30)
    assert not thread.is_alive()


def _expected_exit(tmp_path) -> int:
    program, fixed_inputs, random_input = resolve("dummy")
    owl = Owl(program, name="dummy", config=OwlConfig(**TINY))
    report = owl.detect(fixed_inputs(), random_input=random_input,
                        store=tmp_path / "direct").report
    return 1 if report.has_leaks else 0


class TestRoundTrip:
    def test_submit_wait_exit_code_tracks_leaks(self, service, tmp_path,
                                                capsys):
        url, _client, _scheduler = service
        code = cli_main(["submit", "dummy", "--connect", url, "--wait",
                         *TINY_ARGS])
        assert code == _expected_exit(tmp_path)
        assert capsys.readouterr().out  # the rendered report

    def test_submit_status_results(self, service, capsys):
        url, client, _scheduler = service
        assert cli_main(["submit", "dummy", "--connect", url,
                         *TINY_ARGS]) == 0
        out = capsys.readouterr().out
        cid = out.split("campaign ")[1].split()[0]
        client.wait_for(cid, timeout=240)
        assert cli_main(["status", "--connect", url]) == 0
        assert cid in capsys.readouterr().out
        code = cli_main(["results", cid, "--connect", url])
        assert code in (0, 1)  # per has_leaks, asserted above
        assert capsys.readouterr().out

    def test_results_watch_streams_then_reports(self, service, tmp_path,
                                                capsys):
        url, _client, _scheduler = service
        assert cli_main(["submit", "dummy", "--connect", url,
                         *TINY_ARGS]) == 0
        cid = capsys.readouterr().out.split("campaign ")[1].split()[0]
        code = cli_main(["results", cid, "--connect", url, "--watch"])
        assert code == _expected_exit(tmp_path)
        out = capsys.readouterr().out
        assert f"{cid}  complete" in out

    def test_watch_reconnects_after_midstream_drop(self, service,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        from repro.errors import ServiceConnectionError
        url, _client, _scheduler = service
        assert cli_main(["submit", "dummy", "--connect", url,
                         *TINY_ARGS]) == 0
        cid = capsys.readouterr().out.split("campaign ")[1].split()[0]

        real_watch = ServiceClient.watch
        calls = {"n": 0}

        def flaky_watch(self, campaign, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                stream = real_watch(self, campaign, **kwargs)
                yield next(stream)  # one event, then the link "drops"
                stream.close()
                raise ServiceConnectionError("simulated mid-stream drop")
            yield from real_watch(self, campaign, **kwargs)

        monkeypatch.setattr(ServiceClient, "watch", flaky_watch)
        code = cli_main(["results", cid, "--connect", url, "--watch"])
        assert code == _expected_exit(tmp_path)
        captured = capsys.readouterr()
        assert calls["n"] >= 2, "never reconnected"
        assert "reconnecting" in captured.err
        assert f"{cid}  complete" in captured.out


class TestExitCodes:
    def test_unreachable_service_exits_3(self, tmp_path, capsys):
        code = cli_main(["status", "--connect",
                         f"unix://{tmp_path / 'missing.sock'}"])
        assert code == 3
        assert "owl:" in capsys.readouterr().err

    def test_bad_connect_scheme_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["status", "--connect", "ftp://somewhere:21"])
        assert info.value.code == 2

    def test_socket_host_port_are_usage_errors(self, tmp_path):
        for flag, value in (("--socket", f"{tmp_path}/b.sock"),
                            ("--host", "127.0.0.1"), ("--port", "8750")):
            with pytest.raises(SystemExit) as info:
                cli_main(["status", "--connect",
                          f"unix://{tmp_path}/a.sock", flag, value])
            assert info.value.code == 2

    def test_unknown_campaign_exits_2(self, service, capsys):
        url, _client, _scheduler = service
        assert cli_main(["results", "c9999", "--connect", url]) == 2
        assert "c9999" in capsys.readouterr().err

    def test_pending_results_exit_1(self, tmp_path, capsys):
        # external_workers with nobody attached: campaigns never run
        config = ServiceConfig(workers=0, unit_runs=2,
                               external_workers=True)
        scheduler, url, thread = _start(tmp_path, config=config)
        client = ServiceClient(url)
        client.wait_until_up(timeout=30)
        try:
            assert cli_main(["submit", "dummy", "--connect", url,
                             *TINY_ARGS]) == 0
            cid = capsys.readouterr().out.split("campaign ")[1].split()[0]
            code = cli_main(["results", cid, "--connect", url])
            assert code == 1
            assert "still in stage" in capsys.readouterr().out
        finally:
            try:
                client.shutdown()
            except (CampaignError, OSError):
                pass
            thread.join(timeout=30)


class TestAuthAndQuotaExitCodes:
    @pytest.fixture
    def guarded(self, tmp_path):
        config = ServiceConfig(
            workers=0, unit_runs=2,
            quotas={"alice": TenantQuota(max_campaigns=1)})
        scheduler, url, thread = _start(tmp_path, config=config,
                                        tokens={"sekrit": "alice"})
        client = ServiceClient(url, token="sekrit")
        client.wait_until_up(timeout=30)
        yield url, client
        try:
            client.shutdown()
        except (CampaignError, OSError):
            pass
        thread.join(timeout=30)

    def test_missing_token_exits_3(self, guarded, capsys):
        url, _client = guarded
        assert cli_main(["status", "--connect", url]) == 3
        assert "token" in capsys.readouterr().err

    def test_wrong_token_exits_3(self, guarded, capsys):
        url, _client = guarded
        assert cli_main(["submit", "dummy", "--connect", url,
                         "--token", "wrong", *TINY_ARGS]) == 3

    def test_quota_exhaustion_exits_3(self, guarded, capsys):
        url, client = guarded
        assert cli_main(["submit", "dummy", "--connect", url,
                         "--token", "sekrit", *TINY_ARGS]) == 0
        capsys.readouterr()
        code = cli_main(["submit", "dummy", "--connect", url,
                         "--token", "sekrit", "--seed", "99",
                         "--fixed-runs", "4", "--random-runs", "4"])
        assert code == 3
        assert "quota" in capsys.readouterr().err.lower()
