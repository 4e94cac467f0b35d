"""Detection service: multi-campaign throughput vs serial direct runs.

The service's throughput claim on a box with few cores is *amortisation*,
not parallelism: tenants submitting the same detection coalesce onto one
execution, and even distinct campaigns share phase-1 traces and blobs
through the content-addressed store.  This bench measures that end to
end:

* **serial baseline** — each tenant runs ``Owl.detect`` alone against its
  own fresh store (what N users running ``owl run`` separately pay);
* **service multi-tenant (e2e)** — the same N submissions through one
  :class:`~repro.service.scheduler.CampaignScheduler` (in-process
  execution, ``workers=0``), reports asserted byte-identical to the
  serial baseline's;
* **service fleet xK (e2e)** — the same batch dispatched to a real
  worker-process fleet (spawn cost and unit granularity included).

A second table counts the store's write amplification during one
campaign: full manifest rewrites (O(1) with the journaled manifest)
against journal appends.

Run modes:

* ``pytest benchmarks/bench_service_throughput.py --benchmark-only -s``
  — full measurement, asserts the >=3x multi-tenant bar;
* ``python benchmarks/bench_service_throughput.py --smoke`` — one quick
  pass for CI: identity checks only, no speedup bar (shared runners are
  too noisy to gate merges on a ratio).

``OWL_BENCH_RUNS`` scales the run counts (default 30); the gated row is
re-measured by ``check_perf_regression.py``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from _bench_utils import RESULTS_DIR, bench_runs, render_table
from repro.apps.registry import resolve
from repro.core import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig, WorkerFleet
from repro.store import TraceStore

WORKLOAD = "aes"
TENANTS = 10


def _config_dict(runs: int) -> dict:
    return {"fixed_runs": runs, "random_runs": runs}


def serial_seconds(runs: int, tenants: int, root: Path):
    """N tenants each run a direct detect on a fresh private store."""
    program, fixed_inputs, random_input = resolve(WORKLOAD)
    started = time.perf_counter()
    report_json = None
    for tenant in range(tenants):
        owl = Owl(program, name=WORKLOAD,
                  config=OwlConfig(**_config_dict(runs)))
        result = owl.detect(fixed_inputs(), random_input=random_input,
                            store=root / f"tenant{tenant}")
        report_json = result.report.to_json()
    return time.perf_counter() - started, report_json


def service_seconds(runs: int, tenants: int, workers: int, root: Path,
                    expected_report: str):
    """The same N submissions through one scheduler (+ optional fleet)."""
    store_root = root / "store"
    queue_root = root / "queue"
    config = ServiceConfig(workers=workers, unit_runs=25,
                           lease_seconds=300.0, poll_seconds=0.005)
    fleet = None
    if workers > 0:
        fleet = WorkerFleet(queue_root, store_root, workers=workers,
                            poll_seconds=config.poll_seconds)
    started = time.perf_counter()
    scheduler = CampaignScheduler(store_root, queue_root, config,
                                  fleet=fleet)
    if fleet is not None:
        fleet.start()
    try:
        cids = [scheduler.submit(WORKLOAD, _config_dict(runs))
                for _ in range(tenants)]
        completed = scheduler.wait(cids, timeout=600)
        elapsed = time.perf_counter() - started
        assert completed, "service campaigns did not finish within 600s"
        for cid in cids:
            results = scheduler.results(cid)
            assert results["stage"] == "complete", results
            assert results["report_json"] == expected_report, \
                f"service report for {cid} diverged from direct detect"
    finally:
        if fleet is not None:
            scheduler.queue.request_stop()
            fleet.stop()
    return elapsed


def service_speedup(workers: int, reps: int = 1, runs=None,
                    tenants: int = TENANTS):
    """(serial_s, service_s) best-of-``reps`` — the regression-gate hook."""
    runs = bench_runs(30) if runs is None else runs
    serial_best = service_best = float("inf")
    for _ in range(reps):
        root = Path(tempfile.mkdtemp(prefix="owl-bench-service-"))
        try:
            serial_s, report_json = serial_seconds(runs, tenants, root)
            service_s = service_seconds(runs, tenants, workers,
                                        root / "svc", report_json)
            serial_best = min(serial_best, serial_s)
            service_best = min(service_best, service_s)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return serial_best, service_best


def manifest_write_counts(runs: int):
    """Full manifest rewrites and journal appends during one campaign."""
    program, fixed_inputs, random_input = resolve("dummy")
    root = Path(tempfile.mkdtemp(prefix="owl-bench-manifest-"))
    try:
        store = TraceStore(root / "store")
        owl = Owl(program, name="dummy",
                  config=OwlConfig(**_config_dict(runs)))
        owl.detect(fixed_inputs(), random_input=random_input, store=store)
        row = ["journaled", runs, store.manifest_saves,
               store.journal_appends, len(store)]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return [row], store.manifest_saves


def measure(smoke: bool = False):
    runs = bench_runs(6 if smoke else 30)
    tenants = 2 if smoke else TENANTS
    worker_counts = (2,) if smoke else (2, 4)

    root = Path(tempfile.mkdtemp(prefix="owl-bench-service-"))
    try:
        serial_s, report_json = serial_seconds(runs, tenants, root)
        rows = []
        speedups = {}
        scenarios = [("service multi-tenant (e2e)", 0)]
        scenarios += [(f"service fleet x{n} (e2e)", n)
                      for n in worker_counts]
        for scenario, workers in scenarios:
            service_s = service_seconds(runs, tenants, workers,
                                        root / f"svc-w{workers}",
                                        report_json)
            speedups[scenario] = serial_s / service_s if service_s else 0.0
            rows.append([scenario, f"{serial_s:.3f}", f"{service_s:.3f}",
                         f"{speedups[scenario]:.2f}x"])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    throughput = render_table(
        f"Detection service: {tenants} tenants, {WORKLOAD} "
        f"({runs}+{runs} runs), serial direct runs vs one service",
        ["scenario", "serial s", "service s", "speedup"], rows)

    manifest_rows, manifest_saves = manifest_write_counts(runs)
    manifest = render_table(
        f"Store manifest write amplification during one campaign "
        f"({runs}+{runs} runs)",
        ["store mode", "runs", "manifest rewrites", "journal appends",
         "entries"], manifest_rows)

    text = throughput + "\n\n" + manifest
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "service_throughput.txt").write_text(text + "\n")
    return speedups, manifest_saves


def test_service_throughput(benchmark=None):
    speedups, journaled = measure()
    headline = speedups["service multi-tenant (e2e)"]
    assert headline >= 3.0, \
        f"multi-tenant amortisation only {headline:.2f}x (need >=3x)"
    for scenario, speedup in speedups.items():
        assert speedup > 1.0, f"{scenario} slower than serial"
    assert journaled <= 1, \
        f"journaled store rewrote the manifest {journaled} times"


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    speedups, _counts = measure(smoke=smoke)
    if smoke:
        print("\nbit-identity checks passed (smoke mode: no speedup bars)")
    else:
        headline = speedups["service multi-tenant (e2e)"]
        print(f"\nbit-identity checks passed; multi-tenant amortisation "
              f"{headline:.2f}x")
