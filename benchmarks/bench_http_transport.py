"""Service address kinds head to head: HTTP on a unix socket vs on TCP.

The service has one wire protocol, HTTP/JSON, on two address kinds: a
unix-domain socket (``unix://PATH``, the CLI's default) and TCP
(``http://HOST:PORT``).  Both serve the same
:class:`~repro.service.http.HttpFrontEnd` over the same
:class:`~repro.service.api.ServiceAPI`, so they must return identical
payloads — this bench asserts that, then prices the difference, which
is the socket alone.  Two measurements:

* **light ops** — ``ping`` and ``status`` round trips per address kind
  (connection per call, exactly how :class:`ServiceClient` works), as
  mean latency and ops/s;
* **campaign e2e** — submit → wait → results for one dummy campaign
  per address kind, report bytes asserted identical across kinds *and*
  to a direct in-process ``Owl.detect``.

Run modes:

* ``pytest benchmarks/bench_http_transport.py --benchmark-only -s`` —
  full measurement, asserts HTTP on TCP stays within 10x of HTTP on the
  unix socket on light ops (generous: a per-request TCP handshake vs a
  unix connect);
* ``python benchmarks/bench_http_transport.py --smoke`` — one quick
  pass for CI: identity checks only, no latency bar.
"""

from __future__ import annotations

import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from _bench_utils import RESULTS_DIR, bench_runs, render_table
from repro.apps.registry import resolve
from repro.core import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceClient, ServiceConfig
from repro.service.server import serve_forever

WORKLOAD = "dummy"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _config_dict(runs: int) -> dict:
    return {"fixed_runs": runs, "random_runs": runs, "seed": 7}


def _direct_report(runs: int, root: Path) -> str:
    program, fixed_inputs, random_input = resolve(WORKLOAD)
    owl = Owl(program, name=WORKLOAD, config=OwlConfig(**_config_dict(runs)))
    result = owl.detect(fixed_inputs(), random_input=random_input,
                        store=root / "direct")
    return result.report.to_json()


class _LiveService:
    """One scheduler + server thread on the given address URL."""

    def __init__(self, root: Path, url: str, address) -> None:
        self.scheduler = CampaignScheduler(
            root / "store", root / "queue",
            ServiceConfig(workers=0, unit_runs=10, poll_seconds=0.005))
        self.client = ServiceClient(url)
        self.thread = threading.Thread(
            target=serve_forever, args=(self.scheduler, address),
            kwargs={"tick_seconds": 0.005}, daemon=True)
        self.thread.start()
        self.client.wait_until_up(timeout=30)

    def stop(self) -> None:
        try:
            self.client.shutdown()
        except OSError:
            pass
        self.thread.join(timeout=30)


def _service(root: Path, kind: str) -> _LiveService:
    if kind == "unix":
        path = root / "owl.sock"
        return _LiveService(root, f"unix://{path}", ("unix", str(path)))
    port = _free_port()
    return _LiveService(root, f"http://127.0.0.1:{port}",
                        ("http", ("127.0.0.1", port)))


def light_op_seconds(service: _LiveService, op: str, calls: int) -> float:
    """Total seconds for ``calls`` round trips of one light op."""
    hit = (service.client.ping if op == "ping"
           else service.client.overview)
    hit()  # prime: first call may race server startup caches
    started = time.perf_counter()
    for _ in range(calls):
        hit()
    return time.perf_counter() - started


def campaign_seconds(service: _LiveService, runs: int):
    """Submit → wait → results once; returns (seconds, report bytes)."""
    started = time.perf_counter()
    receipt = service.client.submit(WORKLOAD, config=_config_dict(runs))
    service.client.wait_for(receipt.campaign, timeout=600, poll=0.01)
    results = service.client.results(receipt.campaign)
    elapsed = time.perf_counter() - started
    assert results.complete, results
    return elapsed, results.report_json


def measure(smoke: bool = False):
    runs = bench_runs(4 if smoke else 20)
    calls = 20 if smoke else 200

    root = Path(tempfile.mkdtemp(prefix="owl-bench-http-"))
    light_rows, e2e_rows = [], []
    latency = {}
    reports = {}
    try:
        expected = _direct_report(runs, root)
        for kind in ("unix", "http"):
            service = _service(root / kind, kind)
            try:
                for op in ("ping", "status"):
                    total = light_op_seconds(service, op, calls)
                    latency[(kind, op)] = total / calls
                    light_rows.append(
                        [kind, op, calls,
                         f"{total / calls * 1e3:.3f}",
                         f"{calls / total:.0f}"])
                e2e_s, report_json = campaign_seconds(service, runs)
                reports[kind] = report_json
                e2e_rows.append([kind, f"{runs}+{runs}",
                                 f"{e2e_s:.3f}"])
            finally:
                service.stop()
        assert reports["unix"] == reports["http"], \
            "report payloads differ across address kinds"
        for kind, report_json in reports.items():
            assert report_json == expected, \
                f"{kind} report diverged from direct detect"
    finally:
        shutil.rmtree(root, ignore_errors=True)

    light = render_table(
        f"HTTP light-op round trips per address kind ({calls} calls, "
        f"connection per call)",
        ["address", "op", "calls", "mean ms", "ops/s"], light_rows)
    e2e = render_table(
        f"Campaign e2e through each address kind ({WORKLOAD})",
        ["address", "runs", "e2e s"], e2e_rows)

    text = light + "\n\n" + e2e
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "http_transport.txt").write_text(text + "\n")
    return latency


def test_http_transport(benchmark=None):
    latency = measure()
    for op in ("ping", "status"):
        ratio = latency[("http", op)] / latency[("unix", op)]
        assert ratio < 10.0, \
            f"tcp {op} {ratio:.1f}x slower than the unix socket (cap 10x)"


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    latency = measure(smoke=smoke)
    if smoke:
        print("\nbit-identity checks passed (smoke mode: no latency bar)")
    else:
        ratio = latency[("http", "ping")] / latency[("unix", "ping")]
        print(f"\nbit-identity checks passed; a tcp ping costs {ratio:.1f}x "
              f"a unix-socket ping")
